(** The single classification entry point shared by every engine.

    The data path ({!Ip_core.run}) classifies through here against the
    router's AIU inline and a shard's private AIU sharded, so a gate's
    classification charges identically on both — the flow hash on the
    packet's first AIU consult, the measured memory accesses of
    whatever lookups the AIU performed, one gate-invocation overhead —
    and the Table-3 model figures cannot drift between engines. *)

open Rp_pkt

(** [at aiu ~now ~gate m] classifies [m] at [gate] against [aiu],
    charging the framework costs: {!Cost.flow_hash} the first time
    this packet consults the AIU (no FIX yet), the measured memory
    accesses of the classification, and {!Cost.gate_invoke}.  Emits a
    [Classify] telemetry event for sampled packets. *)
val at :
  Plugin.t Rp_classifier.Aiu.t ->
  now:int64 ->
  gate:Gate.t ->
  Mbuf.t ->
  (Plugin.t * Plugin.t Rp_classifier.Flow_table.record) option
