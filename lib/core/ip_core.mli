(** The IPv4/IPv6 core — the "small part of the network subsystem code
    that remains relatively stable" (paper, section 2): header/TTL
    handling, demultiplexing packets to plugin instances through the
    gates, route lookup, and handoff to the output queue.

    The per-packet path (paper, Figure 3): receive → IPv6 option gate →
    security-in gate → firewall gate → local punt check → routing
    (gate, else table) → congestion gate → security-out gate → stats
    gate → scheduling gate + enqueue.

    Each gate is a classification point: the first gate of a packet
    pays the flow-table hash (or, for the first packet of a flow, the
    full filter-table lookups for {e all} gates); subsequent gates
    dereference the FIX cached in the mbuf.  Cycle costs are charged to
    {!Cost} as described there. *)

open Rp_pkt

type verdict =
  | Enqueued of int  (** queued on output interface *)
  | Delivered_local  (** consumed by a punt handler / local address *)
  | Absorbed  (** a plugin consumed the packet (e.g. reassembly) *)
  | Dropped of string

val pp_verdict : Format.formatter -> verdict -> unit

(** [process router ~now m] runs one packet through the router's data
    path — a batch of one through {!run} — returning what happened to
    it.  [m.key.iface] must identify the receiving interface. *)
val process : Router.t -> now:int64 -> Mbuf.t -> verdict

(** [process_batch router ~now batch ~n] runs [batch.(0 .. n-1)]
    through the data path in one gate-major sweep: each stage (entry,
    pre-routing gates, punt, routing, post-routing gates, enqueue)
    walks the whole batch before the next begins, so the gate-enabled
    checks and counter updates are amortised across the batch.
    Both run {!run}, so per-packet verdicts, cost-model charges and
    metric totals are identical to calling {!process} on each packet in
    batch order — only the interleaving of gate invocations differs.
    (SLO latency {e distributions} are the one observable consequence:
    a batched packet's ingress→verdict span genuinely includes its
    batchmates' gate-major processing.)  [emit] is called once per
    packet, in input order, with the packet's verdict. *)
val process_batch :
  Router.t ->
  ?emit:(Mbuf.t -> verdict -> unit) ->
  now:int64 ->
  Mbuf.t array ->
  n:int ->
  unit

(** [invoke_gate router ~now ~gate m] — classification + indirect call
    for one gate, exposed for tests and micro-benchmarks.  Returns the
    handler's action ([Continue] when no instance is bound). *)
val invoke_gate : Router.t -> now:int64 -> gate:Gate.t -> Mbuf.t -> Plugin.action

(** {2 The shared pipeline}

    Both engines run every packet through one gate-major pipeline,
    {!run}, over a context naming what differs between them.  The
    inline engine's context ({!process}, {!process_batch},
    {!invoke_gate}) carries the router; a shard's carries its private
    compiled state and no router, which leaves out the router-local
    stages listed in [Rp_engine.Engine]. *)

(** Verdict counters of one context. *)
type tally = {
  packets : Rp_obs.Counter.t;
  forwarded : Rp_obs.Counter.t;
  delivered : Rp_obs.Counter.t;
  absorbed : Rp_obs.Counter.t;
  dropped : Rp_obs.Counter.t;
}

(** Where contained plugin faults go. *)
type sink =
  | Attribute of Router.t
      (** into the router's PCU at once (auto-quarantine, [Unbind]) *)
  | Defer of (int * string) list array
      (** per batch slot, as (instance id, reason) events the pipeline
          hands to [emit]; slots are reset on entry, and the array must
          hold at least [n] slots *)

(** The [now] handed to plugins, punt handlers and queues. *)
type clock =
  | At of int64  (** the caller's time, for every packet *)
  | Birth  (** each packet's [birth_ns] *)

type ctx = {
  aiu : Plugin.t Rp_classifier.Aiu.t;
  routes : Route_table.t;
  gates : Gate.t list;  (** enabled gates *)
  meters : Gate.Meters.t;
  tally : tally;
  policy : Fault.policy;
  budget : int option;  (** per-invocation handler cycle budget *)
  sink : sink;
  shard : int;  (** SLO histogram index *)
  clock : clock;
  local : Router.t option;
      (** router-local stages — punt and local delivery, ICMP errors
          and echo replies, interface rx counters, the scheduling gate,
          fragmentation and enqueue — run only when present.  Without
          it a routed packet's verdict is [Enqueued out] with no queue
          behind it. *)
}

(** [run ctx batch ~n ~emit] runs [batch.(0 .. n-1)] through the data
    path and calls [emit m verdict faults] once per packet, in input
    order; [faults] is the packet's deferred fault events, oldest first
    ([[]] under [Attribute]). *)
val run :
  ctx ->
  Mbuf.t array ->
  n:int ->
  emit:(Mbuf.t -> verdict -> (int * string) list -> unit) ->
  unit
