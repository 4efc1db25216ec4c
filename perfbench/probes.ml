(* Per-layer probes: plain monotonic-clock loops over one public
   function of a layer, replaying the workload's own keys and sizes.

   Each probe runs its loop once to warm up, then [trials] times over a
   fixed number of operations sized to ~[trial_ns]; the figure is the
   median ns per operation.  Descriptors come from a pool and are
   reused, so no probe times an allocation the data path would not
   make. *)

open Rp_pkt
open Rp_core

let trials = 7
let trial_ns = 20_000_000

(* Keeps probe results observable so no loop is optimised away. *)
let sink = ref 0

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [run n] performs [n] operations. *)
let ns_per_op run =
  let calib = 1024 in
  let t0 = Spans.now () in
  run calib;
  let per = float_of_int (max 1 (Spans.now () - t0)) /. float_of_int calib in
  let ops = max calib (int_of_float (float_of_int trial_ns /. per)) in
  let ops = (ops + 31) land lnot 31 in
  run ops;
  median
    (Array.init trials (fun _ ->
         let t0 = Spans.now () in
         run ops;
         float_of_int (Spans.now () - t0) /. float_of_int ops))

(* A fresh flow binding carrying per-flow soft state, as the flow table
   hands one to a scheduler. *)
let binding instance =
  { Rp_classifier.Flow_table.instance; filter = None; soft = None }

type result = {
  flow_key_hash_ns : float;
  lookup_hit_ns : float;
  insert_ns : float;
  dag_lookup_ns : float;
  gate_dispatch_ns : float;
  route_lookup_ns : float;
  drr_enq_deq_ns : float;
  spsc_push_pop_ns : float;
  counter_inc_ns : float;
  histogram_observe_ns : float;
}

let run (w : Inputs.workload) (inp : Inputs.t) =
  let mask = Array.length inp.Inputs.key_of - 1 in
  let keys = inp.Inputs.keys and key_of = inp.Inputs.key_of in
  let key i = keys.(key_of.(i land mask)) in
  (* A working set of at most one pool of distinct flows, and the
     input's packet order restricted to it. *)
  let d = min (Array.length keys) Rig.pool_capacity in
  let hits =
    let l = ref [] and c = ref 0 in
    Array.iter
      (fun k ->
        if k < d && !c < 65_536 then begin
          l := k :: !l;
          incr c
        end)
      key_of;
    Array.of_list (List.rev !l)
  in
  let hmask =
    let rec p2 n = if n * 2 > Array.length hits then n else p2 (n * 2) in
    p2 1 - 1
  in
  let router, _ = Rig.build_router w in
  let pool = Pool.create ~capacity:Rig.pool_capacity () in
  let mbufs =
    Array.init d (fun i ->
        let m = Pool.alloc pool ~key:keys.(i) ~len:inp.Inputs.len.(0) in
        m.Mbuf.ttl <- 64;
        m)
  in
  let hash n =
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc lxor Flow_key.hash (key i)
    done;
    sink := !acc
  in
  let ft = Rp_classifier.Flow_table.create ~gates:Gate.count () in
  for i = 0 to d - 1 do
    ignore (Rp_classifier.Flow_table.insert ft keys.(i) ~now:0L)
  done;
  let lookup n =
    for i = 0 to n - 1 do
      let k = keys.(hits.(i land hmask)) in
      match Rp_classifier.Flow_table.lookup ft k ~now:0L with
      | Some _ -> incr sink
      | None -> ()
    done
  in
  (* Inserts cycle through the distinct flows in first-seen order; under
     a cap smaller than that set (churn-inline) every insert recycles. *)
  let ins =
    Rp_classifier.Flow_table.create ?max_records:w.Inputs.flow_max
      ~gates:Gate.count ()
  in
  let nkeys = Array.length keys in
  let insert n =
    for i = 0 to n - 1 do
      ignore (Rp_classifier.Flow_table.insert ins keys.(i mod nkeys) ~now:0L)
    done
  in
  let dag =
    Rp_classifier.Aiu.filter_table (Router.aiu router)
      ~gate:(Gate.to_int Gate.Ip_options)
  in
  let dag_lookup n =
    for i = 0 to n - 1 do
      match Rp_classifier.Dag.lookup dag (key i) with
      | Some _ -> incr sink
      | None -> ()
    done
  in
  (* Classify every probe descriptor once, so the timed dispatches take
     the FIX fast path as steady-state traffic does. *)
  Array.iter
    (fun m ->
      ignore (Ip_core.invoke_gate router ~now:0L ~gate:Gate.Ip_options m))
    mbufs;
  let dispatch n =
    for i = 0 to n - 1 do
      match
        Ip_core.invoke_gate router ~now:0L ~gate:Gate.Ip_options
          mbufs.(hits.(i land hmask))
      with
      | Plugin.Continue -> incr sink
      | _ -> ()
    done
  in
  let routes = router.Router.routes in
  let route n =
    for i = 0 to n - 1 do
      match Route_table.lookup routes (key i).Flow_key.dst with
      | Some _ -> incr sink
      | None -> ()
    done
  in
  let drr =
    Rig.ok "drr probe"
      (Rp_sched.Drr_plugin.create_instance ~instance_id:990_001 ~code:0
         ~config:[])
  in
  let ifc = Iface.create ~id:9 () in
  Iface.attach_scheduler ifc drr;
  let bindings = Array.init d (fun _ -> Some (binding drr)) in
  let enq_deq n =
    let i = ref 0 in
    while !i < n do
      for j = 0 to 31 do
        let x = hits.((!i + j) land hmask) in
        if Iface.enqueue ifc ~now:0L ~binding:bindings.(x) mbufs.(x) then
          incr sink
      done;
      for _ = 0 to 31 do
        match Iface.dequeue ifc ~now:0L with Some _ -> incr sink | None -> ()
      done;
      i := !i + 32
    done
  in
  let ring = Rp_engine.Spsc.create ~capacity:64 ~dummy:mbufs.(0) in
  let out = Array.make 32 mbufs.(0) in
  let spsc n =
    let i = ref 0 in
    while !i < n do
      for j = 0 to 31 do
        if Rp_engine.Spsc.push ring mbufs.(hits.((!i + j) land hmask)) then
          incr sink
      done;
      sink := !sink + Rp_engine.Spsc.pop_batch ring ~max:32 out;
      i := !i + 32
    done
  in
  let counter = Rp_obs.Counter.make "perfbench.probe" in
  let counter_inc n =
    for _ = 1 to n do
      Rp_obs.Counter.inc counter
    done
  in
  let hist = Rp_obs.Histogram.make "perfbench.probe" in
  let lens = inp.Inputs.len in
  let observe n =
    for i = 0 to n - 1 do
      Rp_obs.Histogram.observe hist lens.(i land mask)
    done
  in
  {
    flow_key_hash_ns = ns_per_op hash;
    lookup_hit_ns = ns_per_op lookup;
    insert_ns = ns_per_op insert;
    dag_lookup_ns = ns_per_op dag_lookup;
    gate_dispatch_ns = ns_per_op dispatch;
    route_lookup_ns = ns_per_op route;
    drr_enq_deq_ns = ns_per_op enq_deq;
    spsc_push_pop_ns = ns_per_op spsc;
    counter_inc_ns = ns_per_op counter_inc;
    histogram_observe_ns = ns_per_op observe;
  }

(* The outside-in estimate of one packet's fast path: key hash and
   flow-table hit at the first gate, one FIX dispatch per gate, route
   lookup, plus the DRR enqueue/dequeue when a scheduler is bound. *)
let fastpath_sum (w : Inputs.workload) p =
  let gates = List.length Rig.empty_plugins in
  p.flow_key_hash_ns +. p.lookup_hit_ns
  +. (float_of_int gates *. p.gate_dispatch_ns)
  +. p.route_lookup_ns
  +.
  match w.Inputs.kind with
  | Inputs.Churn_inline -> p.drr_enq_deq_ns
  | Inputs.Fastpath_inline | Inputs.Fastpath_sharded -> 0.0
