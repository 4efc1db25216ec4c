(** One worker shard: a domain-private slice of the data path.

    A shard owns everything its packets touch — a private AIU
    (compiled from the published {!Snapshot}), a private route table,
    a private flow cache, and its own {!Rp_core.Gate.Meters} set under
    the [engine.shard<i>.] registry prefix — so two shards never share
    mutable per-flow state.  RSS-style distribution by
    [Flow_key.hash mod shards] guarantees every packet of a flow lands
    on the same shard, keeping per-flow soft state coherent without
    locks.

    A shard runs the one {!Rp_core.Ip_core.run} pipeline over its own
    context: no router, so the router-local stages are left out (the
    full list is in {!Engine}); gates metered under the shard's prefix;
    each packet's [birth_ns] as its [now].  Faults are contained
    locally (counted, policy applied) and reported in the {!result};
    the control domain attributes them to the PCU when it drains, so
    workers never mutate shared state. *)

open Rp_pkt
open Rp_core

(** What the shard decided for the packet.  [Forwarded i] means the
    packet routed to interface [i]; the engine does not run interface
    queues (those live on the control domain). *)
type outcome =
  | Forwarded of int
  | Absorbed  (** a plugin consumed the packet *)
  | Dropped of string

type result = {
  m : Mbuf.t;
  outcome : outcome;
  faults : (int * string) list;
      (** (instance id, reason) per contained fault, dispatch order —
          applied to the PCU by the control domain on drain *)
}

type t

val create : index:int -> Snapshot.t -> t

(** The outcome of an inline verdict ([Delivered_local] is [Absorbed]). *)
val outcome_of_verdict : Ip_core.verdict -> outcome

(** Snapshot generation this shard last compiled. *)
val seen_gen : t -> int

(** [sync t snap] brings the shard's private state up to [snap]'s
    generation.  When the snapshot's delta log covers every generation
    the shard missed, the mutations are replayed incrementally on the
    private AIU (selective flow invalidation only — unrelated flows
    keep their cache entries); otherwise the AIU and route table are
    recompiled from scratch, which also flushes the shard's flow
    cache.  Runs on the shard's own domain. *)
val sync : t -> Snapshot.t -> unit

(** [dispatch_batch t batch ~n ~emit] runs [batch.(0 .. n-1)] through
    the shard data path in one gate-major sweep, calling [emit] once
    per packet in input order with its {!result}.  The per-gate meter
    updates — atomic counters on worker domains — are batched to one
    add per gate per batch.  Must only be called from the shard's own
    domain. *)
val dispatch_batch :
  t -> Mbuf.t array -> n:int -> emit:(result -> unit) -> unit

(** Model cycles charged by this shard's dispatches so far (readable
    from any domain). *)
val cycles : t -> int

(** [add_cycles t n] accumulates into {!cycles} (worker side). *)
val add_cycles : t -> int -> unit

(** Flow keys currently cached in this shard's private flow table
    (test introspection: cross-shard ownership checks). *)
val flow_keys : t -> Flow_key.t list

(** Flush the shard's private flow cache, exporting every record to
    the {!Rp_obs.Flowlog} ring.  Only safe while the shard's worker is
    idle or stopped (the flow table is domain-private). *)
val flush_flows : t -> unit

(** Expire idle records from the shard's private flow cache (exported
    with reason ["expired"]), returning the count evicted.  Same
    idle-only contract as {!flush_flows}. *)
val expire_flows : t -> now:int64 -> idle_ns:int64 -> int

(** Live records in the shard's private flow table (idle-only, like
    {!flush_flows}). *)
val flow_count : t -> int

(** Stats snapshot of the shard's private flow table (idle-only, like
    {!flush_flows}). *)
val flow_stats : t -> Rp_classifier.Flow_table.stats
