(* The wall-clock router benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   One run: generate the workload's inputs from the seed (untimed), set
   the router up several times (timed: setup_s), warm up, then
   alternate closed-loop segments (mpps, alloc_words_per_pkt, rule
   updates) and open-loop segments at the workload's fixed offered rate
   (lat_p50_us).
   Every drained verdict is checked against the input.  The last line
   of standard output is one JSON object: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1.  See README.md. *)

open Rp_pkt
module Engine = Rp_engine.Engine
module Shard = Rp_engine.Shard

let batch = 32
let setup_runs = 15
let interval_ns = 100_000_000

(* The measured part of a run alternates closed-loop and open-loop
   segments of about this length. *)
let segment_ns = 1_000_000_000

(* Rule-update latencies are summarised over blocks of this many
   consecutive updates; the inline workloads issue one block at every
   closed-loop interval boundary. *)
let update_block = 8
let span_capacity = 1 lsl 14

(* ---- command line ---------------------------------------------------- *)

type opts = {
  workload : Inputs.workload;
  seed : int;
  seconds : float;
  trace : bool;
  inject : int;
  trace_dir : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \                 [--trace-dir DIR] [--inject-ttl-skip K]\n\
     workloads: fastpath-inline churn-inline fastpath-sharded";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and inject = ref 0 and trace_dir = ref "." in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match Inputs.find v with
       | Some w -> workload := Some w
       | None ->
         Printf.eprintf "unknown workload %S\n" v;
         usage ());
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds :=
        Option.bind (float_of_string_opt v) (fun s ->
            if s > 0.0 then Some s else None);
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | "--trace-dir" :: v :: rest ->
      trace_dir := v;
      go rest
    | "--inject-ttl-skip" :: v :: rest ->
      (match int_of_string_opt v with
       | Some k when k > 0 -> inject := k
       | _ -> usage ());
      go rest
    | a :: _ ->
      Printf.eprintf "bad argument %S\n" a;
      usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload, !seed, !seconds, !trace with
  | Some workload, Some seed, Some seconds, Some trace ->
    { workload; seed; seconds; trace; inject = !inject; trace_dir = !trace_dir }
  | _ -> usage ()

(* ---- pump state ------------------------------------------------------ *)

type sink = { res : Shard.result array; mutable nres : int }

type st = {
  inp : Inputs.t;
  mask : int;
  rig : Rig.t;
  egress : Rp_core.Iface.t;
  sharded : bool;
  staged : Mbuf.t array;  (* allocated and filled, not yet on the link *)
  scratch : Mbuf.t array;  (* received from the link, handed to the engine *)
  sink : sink;
  none : Shard.result;  (* fills retired slots of [sink.res] *)
  collect : Shard.result -> unit;
  inject : int;
  mutable seq : int;  (* packets offered so far = next sequence number *)
  mutable drained : int;
  mutable correct : int;
  mutable wrong : int;  (* drained with a wrong verdict, egress, TTL or key *)
  mutable slow_ok : int;  (* TTL-1 packets correctly dropped *)
  mutable pool_fail : int;  (* open loop: due packet found the pool empty *)
  mutable bp_fail : int;  (* rejected by a full engine RX ring *)
  (* open loop: [rate] > 0 while it runs *)
  mutable rate : int;
  mutable open_t0 : int;
  mutable open_seq0 : int;
  due : int array;  (* per pool slot: due time in ns, -1 = closed loop *)
  mutable drain_ts : int;
  mutable lat : int array;
  mutable nlat : int;
  mutable lat_marks : int list;
      (* [nlat] at each open-loop window end, newest first *)
  late : int array;  (* per open-loop batch: how late the generator ran *)
  mutable nlate : int;
  (* rule churn *)
  update_every : int;
  mutable next_update : int;
  mutable updates : int;
  upd : int array;  (* ns from issuing the update until in effect *)
  upd_exec : int array;  (* ns inside [Pmgr.exec] *)
  (* tracing *)
  mutable tracing : bool;
  spans : Spans.t;
  mutable traced_ns : int;
  mutable idle_ns : int;
  mutable backlog_max : int;
  mutable flush_ns : int;
  mutable flushes : int;
}

let make_state (w : Inputs.workload) inp rig ~sharded ~inject =
  let dummy = Mbuf.synth ~key:inp.Inputs.keys.(0) ~len:0 () in
  let none = { Shard.m = dummy; outcome = Shard.Absorbed; faults = [] } in
  let sink = { res = Array.make Rig.pool_capacity none; nres = 0 } in
  let collect r =
    sink.res.(sink.nres) <- r;
    sink.nres <- sink.nres + 1
  in
  {
    inp;
    mask = Array.length inp.Inputs.key_of - 1;
    rig;
    egress = Rp_core.Router.iface rig.Rig.router Rig.egress;
    sharded;
    staged = Array.make batch dummy;
    scratch = Array.make batch dummy;
    sink;
    none;
    collect;
    inject;
    seq = 0;
    drained = 0;
    correct = 0;
    wrong = 0;
    slow_ok = 0;
    pool_fail = 0;
    bp_fail = 0;
    rate = 0;
    open_t0 = 0;
    open_seq0 = 0;
    due = Array.make Rig.pool_capacity (-1);
    drain_ts = 0;
    lat = [||];
    nlat = 0;
    lat_marks = [];
    late = Array.make 1_000_000 0;
    nlate = 0;
    update_every = w.Inputs.update_every;
    next_update = w.Inputs.update_every;
    updates = 0;
    upd = Array.make 200_000 0;
    upd_exec = Array.make 200_000 0;
    tracing = false;
    spans = Spans.create ~capacity:span_capacity;
    traced_ns = 0;
    idle_ns = 0;
    backlog_max = 0;
    flush_ns = 0;
    flushes = 0;
  }

(* ---- one pump iteration ---------------------------------------------- *)

(* Allocate and fill up to [k] descriptors from the input replay. *)
let fill st k =
  let inp = st.inp and pool = st.rig.Rig.pool in
  let placed = ref 0 in
  for _ = 1 to k do
    let seq = st.seq in
    let i = seq land st.mask in
    (match
       Pool.alloc pool
         ~key:inp.Inputs.keys.(inp.Inputs.key_of.(i))
         ~len:inp.Inputs.len.(i)
     with
     | m ->
       m.Mbuf.ttl <- inp.Inputs.ttl.(i);
       m.Mbuf.seq <- seq;
       st.due.(m.Mbuf.pool_slot) <-
         (if st.rate > 0 then
            st.open_t0 + ((seq - st.open_seq0) * 1_000_000_000 / st.rate)
          else -1);
       st.staged.(!placed) <- m;
       incr placed
     | exception Pool.Empty -> st.pool_fail <- st.pool_fail + 1);
    st.seq <- seq + 1
  done;
  !placed

let check st (r : Shard.result) =
  let m = r.Shard.m in
  let seq = m.Mbuf.seq in
  let i = seq land st.mask in
  let inp = st.inp in
  let ttl_in = inp.Inputs.ttl.(i) in
  let key = inp.Inputs.keys.(inp.Inputs.key_of.(i)) in
  let good =
    r.Shard.faults = []
    && (m.Mbuf.key == key || Flow_key.equal m.Mbuf.key key)
    && m.Mbuf.len = inp.Inputs.len.(i)
    &&
    match r.Shard.outcome with
    | Shard.Forwarded o ->
      (* [--inject-ttl-skip K]: the checker's input claims every K-th
         packet was forwarded without a TTL decrement, so a working
         router must fail exactly those checks. *)
      let want =
        if st.inject > 0 && seq mod st.inject = 0 then ttl_in else ttl_in - 1
      in
      ttl_in > 1 && o = Rig.egress && m.Mbuf.ttl = want
    | Shard.Dropped why -> ttl_in <= 1 && String.equal why "ttl expired"
    | Shard.Absorbed -> false
  in
  if good then begin
    st.correct <- st.correct + 1;
    if ttl_in <= 1 then st.slow_ok <- st.slow_ok + 1;
    let due = st.due.(m.Mbuf.pool_slot) in
    if due >= 0 && st.nlat < Array.length st.lat then begin
      st.lat.(st.nlat) <- st.drain_ts - due;
      st.nlat <- st.nlat + 1
    end
  end
  else st.wrong <- st.wrong + 1

(* With spans on, record span [nm] from [start] to now and return now;
   with spans off, return [start] without reading the clock. *)
let mark st nm ~root ~start ~items =
  if st.tracing then begin
    let t = Spans.now () in
    Spans.add st.spans nm ~root ~start ~stop:t ~items;
    t
  end
  else start

(* Check and recycle everything collected by the last drain. *)
let retire st ~root ~t =
  let sink = st.sink in
  let d = sink.nres in
  st.drained <- st.drained + d;
  for j = 0 to d - 1 do
    check st sink.res.(j)
  done;
  let t = mark st Spans.Check ~root ~start:t ~items:d in
  for j = 0 to d - 1 do
    Pool.free st.rig.Rig.pool sink.res.(j).Shard.m;
    (* Drop the reference so a retired result is not promoted by the
       next minor collection. *)
    sink.res.(j) <- st.none
  done;
  sink.nres <- 0;
  mark st Spans.Free ~root ~start:t ~items:d

(* One iteration: offer [k] packets (alloc, link, submit), then drain,
   check and free whatever the engine has finished.  Returns the number
   of packets submitted plus drained (0 = the iteration idled). *)
let step st ~k ~now =
  let tr = st.tracing in
  let root = if tr then Spans.open_batch st.spans ~start:now else -1 in
  let placed = if k > 0 then fill st k else 0 in
  let t = mark st Spans.Alloc ~root ~start:now ~items:placed in
  let link = st.rig.Rig.link in
  for j = 0 to placed - 1 do
    if not (Link.transmit link st.staged.(j)) then failwith "link full"
  done;
  let n = Link.receive_batch link ~max:batch st.scratch in
  let t = mark st Spans.Link ~root ~start:t ~items:n in
  let engine = st.rig.Rig.engine in
  let t =
    if n = 0 then t
    else begin
      let w0 = if tr then Gc.minor_words () else 0.0 in
      let accepted =
        Engine.submit_batch engine ~now:(Int64.of_int now) st.scratch ~n
      in
      st.bp_fail <- st.bp_fail + (n - accepted);
      let t = mark st Spans.Submit ~root ~start:t ~items:n in
      if tr then begin
        Spans.add_words st.spans Spans.Submit (Gc.minor_words () -. w0);
        st.backlog_max <- max st.backlog_max (Rp_core.Iface.backlog st.egress)
      end;
      t
    end
  in
  let w0 = if tr then Gc.minor_words () else 0.0 in
  let d = Engine.drain ~max:(Array.length st.sink.res) engine ~f:st.collect in
  let t = mark st Spans.Drain ~root ~start:t ~items:d in
  if tr then Spans.add_words st.spans Spans.Drain (Gc.minor_words () -. w0);
  if st.rate > 0 then st.drain_ts <- Spans.now ();
  let t = if d > 0 then retire st ~root ~t else t in
  if tr then begin
    Spans.close_batch st.spans root ~start:now ~stop:t ~items:n;
    if n + d = 0 then st.idle_ns <- st.idle_ns + (t - now)
  end;
  n + d

(* Bind or unbind the next narrow filter and wait until it is in
   effect everywhere: [Pmgr.exec] returning (inline) or every shard
   having compiled the new snapshot (sharded). *)
let update st =
  let u = st.updates in
  let rules = st.inp.Inputs.rules in
  let bind, unbind = rules.(u / 2 mod Array.length rules) in
  let t0 = Spans.now () in
  ignore (Rig.pmgr st.rig.Rig.router (if u land 1 = 0 then bind else unbind));
  let t1 = Spans.now () in
  if st.sharded then
    while not (Engine.synced st.rig.Rig.engine) do
      Domain.cpu_relax ()
    done;
  let t2 = Spans.now () in
  if u < Array.length st.upd then begin
    st.upd.(u) <- t2 - t0;
    st.upd_exec.(u) <- t1 - t0
  end;
  st.updates <- u + 1;
  if st.tracing then begin
    let root = Spans.open_batch st.spans ~start:t0 in
    Spans.add st.spans Spans.Pmgr_exec ~root ~start:t0 ~stop:t1 ~items:1;
    Spans.add st.spans Spans.Sync_wait ~root ~start:t1 ~stop:t2 ~items:1;
    Spans.close_batch st.spans root ~start:t0 ~stop:t2 ~items:0
  end

let maybe_update st =
  if st.update_every > 0 && st.seq >= st.next_update then begin
    update st;
    st.next_update <- st.next_update + st.update_every
  end

(* Wait for every packet in flight and retire it. *)
let flush st =
  let t0 = Spans.now () in
  let root = if st.tracing then Spans.open_batch st.spans ~start:t0 else -1 in
  ignore (Engine.flush st.rig.Rig.engine ~f:st.collect);
  let t1 = Spans.now () in
  st.drain_ts <- t1;
  st.flush_ns <- st.flush_ns + (t1 - t0);
  st.flushes <- st.flushes + 1;
  if st.tracing then
    Spans.add st.spans Spans.Flush ~root ~start:t0 ~stop:t1 ~items:st.sink.nres;
  let t2 = retire st ~root ~t:t1 in
  if st.tracing then Spans.close_batch st.spans root ~start:t0 ~stop:t2 ~items:0

(* ---- phases ---------------------------------------------------------- *)

(* Closed loop for [ns]: offer a batch whenever fewer than [Rig.window]
   packets are in flight.  Returns per-interval Mpps of correct
   verdicts and whether each interval was traced.  With [alternate],
   odd intervals run with spans on, even ones with spans off. *)
let closed_loop st ~ns ~alternate =
  let start = Spans.now () in
  let stop = start + ns in
  let mpps = ref [] in
  let iv_start = ref start and iv_correct = ref st.correct and iv = ref 0 in
  st.tracing <- false;
  let now = ref start in
  while !now < stop do
    let inflight = st.seq - st.drained - st.pool_fail - st.bp_fail in
    let k = max 0 (min batch (Rig.window - inflight)) in
    if step st ~k ~now:!now = 0 then Domain.cpu_relax ();
    maybe_update st;
    now := Spans.now ();
    if !now - !iv_start >= interval_ns then begin
      let dt = !now - !iv_start in
      let rate =
        float_of_int (st.correct - !iv_correct) *. 1e3 /. float_of_int dt
      in
      mpps := (rate, st.tracing) :: !mpps;
      if st.tracing then st.traced_ns <- st.traced_ns + dt;
      (* Without updates under traffic, a block of them runs here,
         between two timed intervals, with the traffic paused. *)
      if st.update_every = 0 then begin
        for _ = 1 to update_block do
          update st
        done;
        now := Spans.now ()
      end;
      iv_start := !now;
      iv_correct := st.correct;
      incr iv;
      st.tracing <- alternate && !iv land 1 = 1
    end
  done;
  st.tracing <- false;
  List.rev !mpps

(* Open loop for [ns] at [rate] packets/s: packet s is due at
   t0 + s/rate; each iteration offers every packet already due (up to
   one batch), however late.  Latency runs from a packet's due time to
   the drain that returned its verdict.  No rule updates run here, so
   the latency tail is the data path's own (cold starts, GC), not
   update stalls. *)
let open_loop st ~ns ~rate =
  let start = Spans.now () in
  let stop = start + ns in
  st.rate <- rate;
  st.open_t0 <- start;
  st.open_seq0 <- st.seq;
  let now = ref start in
  let next_mark = ref (start + interval_ns) in
  while !now < stop do
    if !now >= !next_mark then begin
      st.lat_marks <- st.nlat :: st.lat_marks;
      next_mark := !next_mark + interval_ns
    end;
    let due_total = ((!now - start) * rate / 1_000_000_000) + 1 in
    let k = min batch (st.open_seq0 + due_total - st.seq) in
    if k > 0 && st.nlate < Array.length st.late then begin
      st.late.(st.nlate) <-
        !now - (st.open_t0 + ((st.seq - st.open_seq0) * 1_000_000_000 / rate));
      st.nlate <- st.nlate + 1
    end;
    ignore (step st ~k:(max k 0) ~now:!now);
    now := Spans.now ()
  done;
  flush st;
  st.lat_marks <- st.nlat :: st.lat_marks;
  st.rate <- 0

(* ---- statistics ------------------------------------------------------ *)

let nearest n q =
  max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

(* Nearest-rank quantile of an ascending array of ns. *)
let rank s q =
  let n = Array.length s in
  if n = 0 then nan else float_of_int s.(nearest n q)

let sorted a n =
  let s = Array.sub a 0 n in
  Array.sort compare s;
  s

let quantile_int a n q = rank (sorted a n) q

(* Nearest-rank quantile of a list of floats. *)
let quantile l q =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then nan else a.(nearest n q)

let counter name = Rp_obs.Counter.get (Rp_obs.Registry.counter name)

(* Registry counters the per-layer metrics difference across a phase. *)
let counter_names =
  [
    "flow_table.lookups";
    "flow_table.hits";
    "flow_table.recycled";
    "aiu.full_walks";
    "aiu.miss_accesses";
    "engine.backpressure_drops";
  ]

let snapshot () = List.map (fun n -> (n, counter n)) counter_names
let delta a b name = List.assoc name b - List.assoc name a

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf
        (String.sub line 6 (String.length line - 6))
        " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let sum_shards shards f =
  let s = ref 0 in
  for i = 0 to shards - 1 do
    s := !s + f i
  done;
  !s

let model_cycles st ~shards =
  if st.sharded then sum_shards shards (Engine.shard_cycles st.rig.Rig.engine)
  else Rp_core.Cost.get ()

(* ---- main ------------------------------------------------------------ *)

let emit_json ~correct ~attempted ~failed metrics =
  let value v =
    if not (Float.is_finite v) then "null"
    else if Float.is_integer v then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
          (value v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " fields)

let series name l =
  Printf.printf "%s: %s\n" name
    (String.concat " " (List.map (Printf.sprintf "%.3f") l))

let () =
  let o = parse_args () in
  let w = o.workload in
  let nproc = Domain.recommended_domain_count () in
  let shards = max 1 (min (nproc - 1) 4) in
  let sharded = w.Inputs.kind = Inputs.Fastpath_sharded in
  let engine_shards = if sharded then shards else 1 in
  Printf.printf
    "perfbench workload=%s seed=%d seconds=%g trace=%d\n\
     host: nproc=%d ocaml=%s engine=%s open_loop_rate_pps=%d\n\
     %!"
    w.Inputs.name o.seed o.seconds (Bool.to_int o.trace) nproc
    Sys.ocaml_version
    (Engine.mode_to_string (Rig.mode w ~shards))
    w.Inputs.open_rate_pps;
  let inp = Inputs.generate w ~seed:o.seed in
  Printf.printf
    "inputs: packets=%d distinct_flows=%d ttl1_packets=%d digest=%s\n%!"
    (Array.length inp.Inputs.key_of)
    (Array.length inp.Inputs.keys)
    inp.Inputs.slow_path inp.Inputs.digest;
  (* Set-up, timed [setup_runs] times, each with the previous rig
     stopped and unreachable; the last rig carries the traffic. *)
  let setup_times = Array.make setup_runs 0.0 in
  let rig =
    let rec go i =
      let t0 = Spans.now () in
      let rig = Rig.build w ~shards in
      setup_times.(i) <- float_of_int (Spans.now () - t0) /. 1e9;
      if i = setup_runs - 1 then rig
      else begin
        Engine.stop rig.Rig.engine;
        go (i + 1)
      end
    in
    go 0
  in
  let setup_s = quantile (Array.to_list setup_times) 0.5 in
  let st = make_state w inp rig ~sharded ~inject:o.inject in
  let inv0 = counter "flow_table.invalidated" in
  (* Warm-up 10% of the run; the other 90% alternates closed-loop and
     open-loop segments of [segment_ns], so both phases sample the
     whole run. *)
  let total_ns = int_of_float (o.seconds *. 1e9) in
  let warm_ns = total_ns / 10 in
  let segments = max 2 ((total_ns - warm_ns) / segment_ns) in
  let seg_ns = (total_ns - warm_ns) / segments in
  let open_us = (segments + 1) / 2 * seg_ns / 1000 in
  let expected = w.Inputs.open_rate_pps * open_us / 1_000_000 in
  st.lat <- Array.make (expected + 4096) 0;
  (* Warm-up: fill the flow cache (for churn-inline, to its cap). *)
  ignore (closed_loop st ~ns:warm_ns ~alternate:false);
  flush st;
  let upd0 = st.updates in
  let gc0 = Gc.quick_stat () in
  (* Closed-loop figures are summed over the closed-loop segments. *)
  let closed_words = ref 0.0 and closed_minors = ref 0 in
  let closed_pkts = ref 0 and closed_cyc = ref 0 in
  let closed_counts = ref (List.map (fun n -> (n, 0)) counter_names) in
  let intervals = ref [] in
  for seg = 0 to segments - 1 do
    if seg land 1 = 0 then begin
      Gc.minor ();
      let g0 = Gc.quick_stat () and c0 = snapshot () in
      let seq0 = st.seq and cyc0 = model_cycles st ~shards in
      intervals := !intervals @ closed_loop st ~ns:seg_ns ~alternate:o.trace;
      flush st;
      Gc.minor ();
      let g1 = Gc.quick_stat () and c1 = snapshot () in
      closed_words := !closed_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      closed_minors :=
        !closed_minors + (g1.Gc.minor_collections - g0.Gc.minor_collections);
      closed_pkts := !closed_pkts + (st.seq - seq0);
      closed_cyc := !closed_cyc + (model_cycles st ~shards - cyc0);
      closed_counts :=
        List.map (fun (n, v) -> (n, v + delta c0 c1 n)) !closed_counts
    end
    else open_loop st ~ns:seg_ns ~rate:w.Inputs.open_rate_pps
  done;
  let intervals = !intervals and closed_pkts = !closed_pkts in
  let gc2 = Gc.quick_stat () in
  let invalidated = counter "flow_table.invalidated" - inv0 in
  (* End-of-run checks, on an idle engine. *)
  let engine = rig.Rig.engine in
  Engine.flush_flows engine;
  let chain_max =
    let m = ref 0 in
    for i = 0 to engine_shards - 1 do
      let fs = Engine.shard_flow_stats engine i in
      m := max !m fs.Rp_classifier.Flow_table.chain_max
    done;
    !m
  in
  let recon =
    [
      ( "packets",
        counter "flow_table.accounted_packets",
        counter "flow_export.packets" );
      ( "bytes",
        counter "flow_table.accounted_bytes",
        counter "flow_export.bytes" );
    ]
  in
  let recompiles =
    if sharded then
      sum_shards shards (fun i ->
          counter (Printf.sprintf "engine.shard%d.flow_flushes" i))
    else 0
  in
  Engine.stop engine;
  ignore (Engine.drain engine ~f:st.collect);
  ignore (retire st ~root:(-1) ~t:0);
  let ps = Pool.stats rig.Rig.pool in
  let lost = st.seq - st.drained - st.pool_fail - st.bp_fail in
  let failed = st.wrong + st.pool_fail + st.bp_fail + max 0 lost in
  let fail_ratio = float_of_int failed /. float_of_int (max 1 st.seq) in
  let uncounted = ref [] in
  let uncounted_if cond msg = if cond then uncounted := msg :: !uncounted in
  uncounted_if (lost <> 0)
    (Printf.sprintf "%d packets offered but never drained" lost);
  uncounted_if
    (ps.Pool.allocs <> ps.Pool.frees)
    (Printf.sprintf "pool allocs %d <> frees %d" ps.Pool.allocs ps.Pool.frees);
  List.iter
    (fun (what, acc, exp) ->
      uncounted_if (acc <> exp)
        (Printf.sprintf "flow accounting: accounted %s %d <> exported %d" what
           acc exp))
    recon;
  Printf.printf
    "checks: offered=%d drained=%d correct=%d wrong=%d pool_exhausted=%d \
     backpressure=%d lost=%d ttl_expired_ok=%d pool_allocs=%d pool_frees=%d \
     fail_ratio=%.6g\n"
    st.seq st.drained st.correct st.wrong st.pool_fail st.bp_fail lost
    st.slow_ok ps.Pool.allocs ps.Pool.frees fail_ratio;
  List.iter
    (fun (what, acc, exp) ->
      Printf.printf "checks: flow %s accounted=%d exported=%d\n" what acc exp)
    recon;
  (* Throughput, p50 latency and update times are summarised per 100 ms
     (per block of updates) and reported as the run's best: the fastest
     interval, the lowest window median and the lowest block median.
     On the shared host they were defined on, the router runs in a
     fast and a slow state that last seconds to minutes and differ by
     up to 2x, in a share of each run that differs from run to run; the
     slow state only ever slows it, so the best of some 250 samples
     spread over the run is the figure that tracks the code rather than
     the host (see README.md).  A latency window is 100 ms of the open loop by drain
     time and needs 1000 samples.  The p99 over all open-loop samples
     is printed and is a traced-run metric: at these rates it sits at
     the edge of GC pauses and host stalls and did not hold a 0.25
     bound across seeds. *)
  let best_rate l = quantile l 1.0 and best_time l = quantile l 0.0 in
  let windows =
    let rec go prev acc = function
      | [] -> List.rev acc
      | m :: rest ->
        let n = m - prev in
        let acc =
          if n >= 1000 then sorted (Array.sub st.lat prev n) n :: acc else acc
        in
        go m acc rest
    in
    go 0 [] (List.rev st.lat_marks)
  in
  uncounted_if
    (List.length windows < 3)
    (Printf.sprintf "only %d open-loop windows with 1000 latency samples"
       (List.length windows));
  let window_q q = List.map (fun a -> rank a q /. 1e3) windows in
  let lat = sorted st.lat st.nlat in
  let traced, untraced = List.partition snd intervals in
  let traced = List.map fst traced and untraced = List.map fst untraced in
  let mpps = best_rate untraced in
  let upd_n = min st.updates (Array.length st.upd) in
  (* Median of each block of [update_block] consecutive updates after
     the warm-up (during the warm-up the flow table is still filling). *)
  let update_blocks =
    List.init ((upd_n - upd0) / update_block) (fun b ->
        quantile_int
          (Array.sub st.upd (upd0 + (b * update_block)) update_block)
          update_block 0.5
        /. 1e3)
  in
  series "closed-loop interval Mpps" untraced;
  series "open-loop window p50 us" (window_q 0.5);
  series "rule-update block p50 us" update_blocks;
  Printf.printf
    "closed loop: %d intervals of %d ms, %d packets\n\
     open loop: %d latency samples in %d windows; whole phase us p50=%.1f \
     p90=%.1f p99=%.1f p99.9=%.1f max=%.1f\n"
    (List.length untraced) (interval_ns / 1_000_000) closed_pkts st.nlat
    (List.length windows)
    (rank lat 0.5 /. 1e3) (rank lat 0.9 /. 1e3) (rank lat 0.99 /. 1e3)
    (rank lat 0.999 /. 1e3) (rank lat 1.0 /. 1e3);
  let per_pkt x = float_of_int x /. float_of_int (max 1 closed_pkts) in
  let end_to_end () =
    [
      ("mpps", mpps, "Mpps");
      ("lat_p50_us", best_time (window_q 0.5), "us");
      ("correct_ratio", 1.0 -. fail_ratio, "ratio");
      ( "alloc_words_per_pkt",
        !closed_words /. float_of_int (max 1 closed_pkts),
        "words" );
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", vm_hwm_mb (), "MB");
      ("rule_update_p50_us", best_time update_blocks, "us");
    ]
  in
  let per_layer () =
    let p = Probes.run w inp in
    let sp = st.spans in
    let per_item nm =
      float_of_int (Spans.total_ns sp nm)
      /. float_of_int (max 1 (Spans.items sp nm))
    in
    let words_per_item nm =
      Spans.words sp nm /. float_of_int (max 1 (Spans.items sp nm))
    in
    let d n = List.assoc n !closed_counts in
    let per_kpkt x = 1000.0 *. per_pkt x in
    let ratio a b = float_of_int a /. float_of_int (max 1 b) in
    let walks = d "aiu.full_walks" in
    let path =
      Filename.concat o.trace_dir
        (Printf.sprintf "trace-%s-seed%d.json" w.Inputs.name o.seed)
    in
    Spans.write_chrome sp path;
    Printf.printf "trace: %d of %d spans written to %s\n" sp.Spans.n
      (Array.fold_left ( + ) 0 sp.Spans.count)
      path;
    let probe_sum = Probes.fastpath_sum w p in
    Printf.printf
      "outside-in fast path: probes sum to %.1f ns/pkt vs \
       core.submit_ns_per_pkt %.1f ns\n"
      probe_sum (per_item Spans.Submit);
    [
      ("pkt.pool_alloc_ns", per_item Spans.Alloc, "ns");
      ("pkt.pool_free_ns", per_item Spans.Free, "ns");
      ("pkt.link_ns_per_pkt", per_item Spans.Link, "ns");
      ("pkt.flow_key_hash_ns", p.Probes.flow_key_hash_ns, "ns");
      ("pkt.pool_exhausted", float_of_int ps.Pool.exhausted, "count");
      ( "flow_table.hit_ratio",
        ratio (d "flow_table.hits") (d "flow_table.lookups"),
        "ratio" );
      ( "flow_table.recycled_per_kpkt",
        per_kpkt (d "flow_table.recycled"),
        "1/kpkt" );
      ("flow_table.chain_max", float_of_int chain_max, "count");
      ("flow_table.lookup_hit_ns", p.Probes.lookup_hit_ns, "ns");
      ("flow_table.insert_ns", p.Probes.insert_ns, "ns");
      ("aiu.full_walks_per_kpkt", per_kpkt walks, "1/kpkt");
      ("dag.accesses_per_walk", ratio (d "aiu.miss_accesses") walks, "count");
      ("dag.lookup_ns", p.Probes.dag_lookup_ns, "ns");
      ("core.submit_ns_per_pkt", per_item Spans.Submit, "ns");
      ("core.submit_words_per_pkt", words_per_item Spans.Submit, "words");
      ("core.gate_dispatch_ns", p.Probes.gate_dispatch_ns, "ns");
      ("core.route_lookup_ns", p.Probes.route_lookup_ns, "ns");
      ("core.model_cycles_per_pkt", per_pkt !closed_cyc, "cycles");
      ("core.fastpath_probe_sum_ns", probe_sum, "ns");
      ("sched.drr_enq_deq_ns", p.Probes.drr_enq_deq_ns, "ns");
      ("sched.backlog_max", float_of_int st.backlog_max, "count");
      ("engine.drain_ns_per_pkt", per_item Spans.Drain, "ns");
      ("engine.drain_words_per_pkt", words_per_item Spans.Drain, "words");
      ("engine.flush_wait_us", ratio st.flush_ns st.flushes /. 1e3, "us");
      ( "engine.main_busy_ratio",
        1.0 -. ratio st.idle_ns st.traced_ns,
        "ratio" );
      ("engine.spsc_push_pop_ns", p.Probes.spsc_push_pop_ns, "ns");
      ( "engine.rx_full_retries_per_kpkt",
        per_kpkt (d "engine.backpressure_drops"),
        "1/kpkt" );
      ("engine.recompiles", float_of_int recompiles, "count");
      ("control.pmgr_exec_us", quantile_int st.upd_exec upd_n 0.5 /. 1e3, "us");
      ( "control.flows_invalidated_per_update",
        ratio invalidated st.updates,
        "count" );
      ("obs.counter_inc_ns", p.Probes.counter_inc_ns, "ns");
      ("obs.histogram_observe_ns", p.Probes.histogram_observe_ns, "ns");
      ( "gc.minor_collections_per_kpkt",
        per_kpkt !closed_minors,
        "1/kpkt" );
      ( "gc.major_collections",
        float_of_int (gc2.Gc.major_collections - gc0.Gc.major_collections),
        "count" );
      ("open_loop.lat_p99_us", rank lat 0.99 /. 1e3, "us");
      ("loadgen.late_p99_us", quantile_int st.late st.nlate 0.99 /. 1e3, "us");
      ("trace.overhead_ratio", mpps /. best_rate traced, "ratio");
      ("workload.slow_path_share", ratio st.slow_ok st.seq, "ratio");
      ("fail_ratio", fail_ratio, "ratio");
    ]
  in
  let metrics = if o.trace then per_layer () else end_to_end () in
  List.iter
    (fun (name, v, _) ->
      uncounted_if (not (Float.is_finite v))
        (Printf.sprintf "metric %s was not measured" name))
    metrics;
  List.iter (fun s -> Printf.printf "CHECK FAILED: %s\n" s) !uncounted;
  List.iter
    (fun (name, v, unit) ->
      Printf.printf "metric %-38s %14.4f %s\n" name v unit)
    metrics;
  emit_json
    ~correct:(failed = 0 && !uncounted = [])
    ~attempted:st.seq ~failed metrics;
  if !uncounted <> [] then exit 1
