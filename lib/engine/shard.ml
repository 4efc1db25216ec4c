open Rp_pkt
open Rp_core

type outcome =
  | Forwarded of int
  | Absorbed
  | Dropped of string

type result = {
  m : Mbuf.t;
  outcome : outcome;
  faults : (int * string) list;
}

type t = {
  m_flow_flushes : Rp_obs.Counter.t;
  m_delta_applies : Rp_obs.Counter.t;
  m_deltas_replayed : Rp_obs.Counter.t;
  seen_gen : int Atomic.t;
  cycles_acc : int Atomic.t;
  (* Domain-private compiled state — AIU, routes, enabled gates, fault
     policy and budget — held as the shard's pipeline context; written
     only by [sync] on the shard's own domain, after which only that
     domain reads it. *)
  mutable ctx : Ip_core.ctx;
}

let seen_gen t = Atomic.get t.seen_gen
let cycles t = Atomic.get t.cycles_acc
let add_cycles t n = ignore (Atomic.fetch_and_add t.cycles_acc n)

let compile snap =
  let aiu = Rp_classifier.Aiu.create ~gates:Gate.count () in
  Flow_export.install aiu;
  List.iter
    (fun (gate, filter, inst) -> Rp_classifier.Aiu.bind aiu ~gate filter inst)
    snap.Snapshot.bindings;
  Rp_classifier.Aiu.set_mode aiu snap.Snapshot.classifier;
  let routes = Route_table.create () in
  List.iter (fun r -> Route_table.add routes r) snap.Snapshot.routes;
  (aiu, routes)

let apply t (snap : Snapshot.t) =
  let aiu, routes = compile snap in
  (* Export the outgoing cache's flow records before dropping it, so a
     recompile never loses NetFlow accounting. *)
  Rp_classifier.Aiu.flush_flows t.ctx.aiu;
  t.ctx <-
    {
      t.ctx with
      aiu;
      routes;
      gates = snap.gates;
      policy = snap.policy;
      budget = snap.budget;
    };
  Atomic.set t.seen_gen snap.gen

let create ~index snap =
  let prefix = Printf.sprintf "engine.shard%d." index in
  let counter suffix = Rp_obs.Registry.counter (prefix ^ suffix) in
  let t =
    {
      m_flow_flushes = counter "flow_flushes";
      m_delta_applies = counter "delta_applies";
      m_deltas_replayed = counter "deltas_replayed";
      seen_gen = Atomic.make (-1);
      cycles_acc = Atomic.make 0;
      ctx =
        {
          Ip_core.aiu = Rp_classifier.Aiu.create ~gates:Gate.count ();
          routes = Route_table.create ();
          gates = [];
          meters = Gate.Meters.create ~prefix;
          tally =
            {
              Ip_core.packets = counter "rx";
              forwarded = counter "forwarded";
              (* a shard has no local delivery *)
              delivered = counter "absorbed";
              absorbed = counter "absorbed";
              dropped = counter "dropped";
            };
          policy = Fault.Drop_packet;
          budget = None;
          sink = Ip_core.Defer [||];
          shard = index;
          clock = Ip_core.Birth;
          local = None;
        };
    }
  in
  apply t snap;
  t

(* Refresh the cheap whole-value state a snapshot always carries in
   full: routes (rebuilt — route churn is orders of magnitude rarer
   than filter churn), the enabled-gate list, fault policy/budget, and
   the classifier mode (so a `pmgr classifier` toggle reaches shards
   on the delta path too, without invalidating their flow caches). *)
let refresh_control t (snap : Snapshot.t) =
  let routes = Route_table.create () in
  List.iter (fun r -> Route_table.add routes r) snap.Snapshot.routes;
  t.ctx <-
    {
      t.ctx with
      routes;
      gates = snap.gates;
      policy = snap.policy;
      budget = snap.budget;
    };
  Rp_classifier.Aiu.set_mode t.ctx.aiu snap.Snapshot.classifier

let replay_delta t = function
  | Snapshot.Bind (gate, f, inst) -> Rp_classifier.Aiu.bind t.ctx.aiu ~gate f inst
  | Snapshot.Unbind (gate, f) -> Rp_classifier.Aiu.unbind t.ctx.aiu ~gate f
  | Snapshot.Flush -> Rp_classifier.Aiu.flush_flows t.ctx.aiu
  | Snapshot.Refresh -> ()

let sync t snap =
  let seen = Atomic.get t.seen_gen in
  if snap.Snapshot.gen <> seen then begin
    (* Deltas newer than our compiled state.  Generations in the log
       are consecutive, so the chain reaches back to [seen] exactly
       when one entry exists per missed generation; otherwise the log
       was trimmed (backlog overflow) or a publication intentionally
       broke the chain, and only a recompile is sound. *)
    let pending =
      List.filter (fun (g, _) -> g > seen) snap.Snapshot.deltas
    in
    if seen >= 0 && List.length pending = snap.Snapshot.gen - seen then begin
      (* Incremental path: replay the outstanding mutations on the
         private AIU.  Selective invalidation inside [Aiu.bind]/
         [Aiu.unbind] evicts only the flows the changed filters could
         match — unrelated flows keep their records and FIX fast
         path. *)
      List.iter (fun (_, d) -> replay_delta t d) pending;
      refresh_control t snap;
      Atomic.set t.seen_gen snap.gen;
      Rp_obs.Counter.inc t.m_delta_applies;
      Rp_obs.Counter.add t.m_deltas_replayed (List.length pending)
    end
    else begin
      apply t snap;
      (* A recompile discards the private flow cache — same semantics
         as the single-domain AIU flush on any filter-table mutation. *)
      Rp_obs.Counter.inc t.m_flow_flushes
    end
  end

(* --- data path ------------------------------------------------------ *)

let outcome_of_verdict = function
  | Ip_core.Enqueued i -> Forwarded i
  | Ip_core.Delivered_local | Ip_core.Absorbed -> Absorbed
  | Ip_core.Dropped why -> Dropped why

(* The shared pipeline over the shard's context.  Nothing re-enters it
   on a shard (no router-local stages), so the deferred-fault slots are
   a preallocated scratch, grown to the largest batch seen. *)
let dispatch_batch t batch ~n ~emit =
  (match t.ctx.sink with
   | Ip_core.Defer slots when Array.length slots >= n -> ()
   | Ip_core.Defer _ | Ip_core.Attribute _ ->
     t.ctx <- { t.ctx with sink = Ip_core.Defer (Array.make n []) });
  Ip_core.run t.ctx batch ~n ~emit:(fun m verdict faults ->
      emit { m; outcome = outcome_of_verdict verdict; faults })

let flush_flows t = Rp_classifier.Aiu.flush_flows t.ctx.aiu

let expire_flows t ~now ~idle_ns =
  Rp_classifier.Aiu.expire_flows t.ctx.aiu ~now ~idle_ns

let flow_count t =
  Rp_classifier.Flow_table.length (Rp_classifier.Aiu.flow_table t.ctx.aiu)

let flow_stats t =
  Rp_classifier.Flow_table.stats (Rp_classifier.Aiu.flow_table t.ctx.aiu)

let flow_keys t =
  let keys = ref [] in
  Rp_classifier.Flow_table.iter
    (fun r -> keys := Rp_classifier.Flow_table.key r :: !keys)
    (Rp_classifier.Aiu.flow_table t.ctx.aiu);
  !keys
