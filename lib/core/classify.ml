open Rp_pkt

(* The one classify-and-charge implementation: the shared pipeline
   ([Ip_core.run]) classifies through here against the router's AIU
   inline and a shard's private one sharded, so the two engines cannot
   drift (a regression test pins cycle-for-cycle equality).  Nothing here depends on which classifier mode the AIU
   runs — the accesses are measured, not modeled. *)
let at aiu ~now ~gate m =
  let had_fix = m.Mbuf.fix <> None in
  let result, accesses =
    Rp_lpm.Access.measure (fun () ->
        Rp_classifier.Aiu.classify aiu m ~gate:(Gate.to_int gate) ~now)
  in
  if not had_fix then Cost.charge Cost.flow_hash;
  Cost.charge_mem accesses;
  Cost.charge Cost.gate_invoke;
  if m.Mbuf.tseq <> 0 then
    Rp_obs.Telemetry.record ~ts:(Cost.get ()) ~kind:Rp_obs.Telemetry.Classify
      ~gate:(Gate.to_int gate) ~pkt:m.Mbuf.tseq ~arg:accesses;
  result
