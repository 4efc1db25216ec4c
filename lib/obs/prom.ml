(* Prometheus text exposition of the registry, plus the lint the CI
   gate runs over it.

   Metric names map [a.b-c] -> [rp_a_b_c]: the [rp_] prefix namespaces
   the router, and every non-alphanumeric byte becomes an underscore
   (the repo's dotted names contain nothing else).  Counters and
   gauges render as single samples; histograms render in the standard
   cumulative form — [_bucket{le="..."}] series ending in [+Inf], then
   [_sum] and [_count].  A page renders one [Registry.snapshot], so it
   is internally consistent even while other domains observe. *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    ("rp_" ^ name)

let text snap =
  let b = Buffer.create 8192 in
  List.iter
    (fun (name, v) ->
      let pname = sanitize name in
      match v with
      | Registry.Int n ->
        Printf.bprintf b "# TYPE %s counter\n%s %d\n" pname pname n
      | Registry.Float f ->
        Printf.bprintf b "# TYPE %s gauge\n%s %s\n" pname pname
          (Registry.float_str f)
      | Registry.Hist h ->
        Printf.bprintf b "# TYPE %s histogram\n" pname;
        let acc = ref 0 in
        Array.iteri
          (fun i c ->
            acc := !acc + c;
            Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" pname
              (Registry.bucket_label ~inf:"+Inf" h i) !acc)
          h.Registry.counts;
        Printf.bprintf b "%s_sum %d\n%s_count %d\n" pname h.Registry.sum pname
          !acc)
    snap;
  Buffer.contents b

(* --- lint ------------------------------------------------------------ *)

(* A hand-rolled validator for the subset of the exposition format we
   emit, strict enough to catch real breakage: malformed names or
   values, samples without a preceding TYPE, non-monotone cumulative
   buckets, a missing +Inf bucket, or _count disagreeing with it.
   Returns the number of sample lines, or an error naming the line. *)

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
  | _ -> false

let valid_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all is_name_char s

let valid_value s = s <> "" && Float.is_finite (float_of_string s)

type hist_state = {
  mutable last_cum : int;
  mutable inf_seen : bool;
  mutable inf_value : int;
}

let lint s =
  let typed : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let hists : (string, hist_state) Hashtbl.t = Hashtbl.create 16 in
  let samples = ref 0 in
  let err = ref None in
  let fail lineno msg =
    if !err = None then err := Some (Printf.sprintf "line %d: %s" lineno msg)
  in
  (* The base metric a sample line belongs to: strip the histogram
     series suffixes when the base is a declared histogram. *)
  let base_of name =
    let strip suffix =
      let n = String.length name and ns = String.length suffix in
      if n > ns && String.sub name (n - ns) ns = suffix then
        Some (String.sub name 0 (n - ns))
      else None
    in
    let candidate =
      match strip "_bucket" with
      | Some b -> Some (b, `Bucket)
      | None -> (
          match strip "_sum" with
          | Some b -> Some (b, `Sum)
          | None -> (
              match strip "_count" with
              | Some b -> Some (b, `Count)
              | None -> None))
    in
    match candidate with
    | Some (b, kind) when Hashtbl.find_opt typed b = Some "histogram" ->
      (b, kind)
    | _ -> (name, `Plain)
  in
  let lines = String.split_on_char '\n' s in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if line = "" then ()
      else if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
          if not (valid_name name) then
            fail lineno ("invalid metric name in TYPE: " ^ name)
          else if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
            fail lineno ("unknown metric type: " ^ kind)
          else if Hashtbl.mem typed name then
            fail lineno ("duplicate TYPE for " ^ name)
          else begin
            Hashtbl.replace typed name kind;
            if kind = "histogram" then
              Hashtbl.replace hists name
                { last_cum = -1; inf_seen = false; inf_value = 0 }
          end
        | "#" :: ("HELP" | "EOF") :: _ -> ()
        | _ -> fail lineno "malformed comment line"
      end
      else begin
        (* name[{labels}] value *)
        let name_end =
          let n = ref 0 in
          while !n < String.length line && is_name_char line.[!n] do incr n done;
          !n
        in
        let name = String.sub line 0 name_end in
        let rest = String.sub line name_end (String.length line - name_end) in
        let labels, rest =
          if rest <> "" && rest.[0] = '{' then
            match String.index_opt rest '}' with
            | Some j ->
              ( Some (String.sub rest 1 (j - 1)),
                String.sub rest (j + 1) (String.length rest - j - 1) )
            | None -> (None, rest)
          else (None, rest)
        in
        if not (valid_name name) then
          fail lineno ("invalid sample name: " ^ String.trim line)
        else if String.length rest < 2 || rest.[0] <> ' ' then
          fail lineno ("malformed sample line: " ^ line)
        else begin
          let value = String.trim rest in
          if not (try valid_value value with _ -> false) then
            fail lineno ("invalid sample value: " ^ value)
          else begin
            incr samples;
            let base, kind = base_of name in
            (match Hashtbl.find_opt typed base with
             | None -> fail lineno ("sample without TYPE: " ^ name)
             | Some _ -> ());
            match (kind, Hashtbl.find_opt hists base) with
            | `Bucket, Some h ->
              let le =
                match labels with
                | Some l when String.length l > 4 && String.sub l 0 4 = "le=\""
                  ->
                  Some (String.sub l 4 (String.length l - 5))
                | _ -> None
              in
              let v = int_of_float (float_of_string value) in
              (match le with
               | None -> fail lineno ("bucket without le label: " ^ line)
               | Some "+Inf" ->
                 h.inf_seen <- true;
                 h.inf_value <- v;
                 if v < h.last_cum then
                   fail lineno (base ^ ": +Inf bucket below previous bucket")
               | Some _ ->
                 if v < h.last_cum then
                   fail lineno (base ^ ": cumulative buckets not monotone");
                 h.last_cum <- v)
            | `Count, Some h ->
              if not h.inf_seen then
                fail lineno (base ^ ": _count before +Inf bucket")
              else if int_of_float (float_of_string value) <> h.inf_value then
                fail lineno (base ^ ": _count disagrees with +Inf bucket")
            | _ -> ()
          end
        end
      end)
    lines;
  match !err with
  | Some e -> Error e
  | None ->
    let missing = ref None in
    Hashtbl.iter
      (fun n h -> if (not h.inf_seen) && !missing = None then missing := Some n)
      hists;
    (match !missing with
     | Some n -> Error (n ^ ": histogram missing +Inf bucket")
     | None -> Ok !samples)
