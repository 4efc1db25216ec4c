type source =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

let tbl : (string, source) Hashtbl.t = Hashtbl.create 256

(* The table itself is control-path state (registration, dumps); the
   hot path only increments already-created counters.  A lock keeps
   concurrent registration — e.g. a shard registering its meters while
   the main domain dumps — from corrupting the hashtable. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let find name = locked (fun () -> Hashtbl.find_opt tbl name)

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some (Counter c) -> c
      | Some _ -> invalid_arg ("Registry.counter: " ^ name ^ " is not a counter")
      | None ->
        let c = Counter.make name in
        Hashtbl.replace tbl name (Counter c);
        c)

let histogram ?bounds name =
  locked (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some (Histogram h) -> h
      | Some _ ->
        invalid_arg ("Registry.histogram: " ^ name ^ " is not a histogram")
      | None ->
        let h = Histogram.make ?bounds name in
        Hashtbl.replace tbl name (Histogram h);
        h)

(* Gauges are replaced, not get-or-created: a re-created scheduler
   instance re-registers its depth gauge under the same name and the
   stale closure (and the state it captures) is dropped. *)
let gauge name read =
  locked (fun () -> Hashtbl.replace tbl name (Gauge (Gauge.make name read)))

let set name v =
  locked (fun () -> Hashtbl.replace tbl name (Gauge (Gauge.constant name v)))

let remove name = locked (fun () -> Hashtbl.remove tbl name)

let matches pattern name =
  match pattern with
  | None -> true
  | Some p ->
    let np = String.length p and nn = String.length name in
    let rec at i = i + np <= nn && (String.sub name i np = p || at (i + 1)) in
    np = 0 || at 0

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ s ->
          match s with
          | Counter c -> Counter.reset c
          | Histogram h -> Histogram.reset h
          | Gauge _ -> ())
        tbl)

(* --- the one export read ------------------------------------------- *)

type hist = { bounds : int array; counts : int array; sum : int }
type value = Int of int | Float of float | Hist of hist
type snapshot = (string * value) list

let read = function
  | Counter c -> Int (Counter.get c)
  | Gauge g -> Float (Gauge.read g)
  | Histogram h ->
    Hist
      { bounds = Histogram.bounds h; counts = Histogram.counts h;
        sum = Histogram.sum h }

(* One lock for the whole table: [reset] takes the same lock, so a
   snapshot never interleaves with a reset half-way through the table
   and reports some metrics zeroed and others not.  (Individual reads
   racing data-path increments remain momentary values — that is
   fine; partially-applied *resets* were the bug.)  Gauge callbacks
   therefore must not call back into the registry. *)
let snapshot ?pattern () =
  locked (fun () ->
      Hashtbl.fold
        (fun name src acc ->
          if matches pattern name then (name, read src) :: acc else acc)
        tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let count h = Array.fold_left ( + ) 0 h.counts

(* --- writers: pure functions of a snapshot --------------------------- *)

(* JSON and the Prometheus text format have no NaN/inf; a broken gauge
   reads as 0 rather than invalidating the whole page. *)
let float_str v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let bucket_label ~inf h i =
  if i < Array.length h.bounds then string_of_int h.bounds.(i) else inf

let text snap =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      match v with
      | Int k -> Printf.bprintf b "%s %d\n" name k
      | Float f -> Printf.bprintf b "%s %s\n" name (float_str f)
      | Hist h ->
        Printf.bprintf b "%s count=%d sum=%d" name (count h) h.sum;
        Array.iteri
          (fun i c ->
            Printf.bprintf b " le%s=%d" (bucket_label ~inf:"+inf" h i) c)
          h.counts;
        Buffer.add_char b '\n')
    snap;
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Integer version for downstream consumers to switch on; the
   human-readable "schema" string stays in step.  v2 added
   [schema_version] itself and histogram p50/p90/p99 quantiles; v3
   adds the p999 tail quantile to every histogram entry (for the
   latency SLO families) alongside the drops.* and health.* metric
   families. *)
let schema_version = 3

(* One metric per line, keys sorted: dumps diff cleanly and simple
   line-oriented tools (the CI bench gate) can extract values without
   a JSON parser. *)
let json snap =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\n  \"schema\": \"rp-metrics/%d\",\n  \"schema_version\": %d,\n\
    \  \"metrics\": {\n"
    schema_version schema_version;
  let last = List.length snap - 1 in
  List.iteri
    (fun i (name, v) ->
      Printf.bprintf b "    \"%s\": " (json_escape name);
      (match v with
       | Int k -> Buffer.add_string b (string_of_int k)
       | Float f -> Buffer.add_string b (float_str f)
       | Hist h ->
         let q = Histogram.quantile_of_counts ~bounds:h.bounds h.counts in
         Printf.bprintf b
           "{\"count\": %d, \"sum\": %d, \"p50\": %s, \"p90\": %s, \
            \"p99\": %s, \"p999\": %s, \"buckets\": {"
           (count h) h.sum
           (float_str (q 0.50)) (float_str (q 0.90))
           (float_str (q 0.99)) (float_str (q 0.999));
         Array.iteri
           (fun j c ->
             if j > 0 then Buffer.add_string b ", ";
             Printf.bprintf b "\"%s\": %d" (bucket_label ~inf:"+inf" h j) c)
           h.counts;
         Buffer.add_string b "}}");
      Buffer.add_string b (if i < last then ",\n" else "\n"))
    snap;
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

(* Write-then-rename so a reader never sees a half-written file: the
   report loops rewrite their exports every interval while the router
   runs. *)
let write_file path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path
