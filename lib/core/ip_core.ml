open Rp_pkt

type verdict =
  | Enqueued of int
  | Delivered_local
  | Absorbed  (** a plugin consumed the packet (e.g. reassembly) *)
  | Dropped of string

let pp_verdict ppf = function
  | Enqueued i -> Format.fprintf ppf "enqueued on if%d" i
  | Delivered_local -> Format.pp_print_string ppf "delivered locally"
  | Absorbed -> Format.pp_print_string ppf "consumed by a plugin"
  | Dropped why -> Format.fprintf ppf "dropped (%s)" why

type tally = {
  packets : Rp_obs.Counter.t;
  forwarded : Rp_obs.Counter.t;
  delivered : Rp_obs.Counter.t;
  absorbed : Rp_obs.Counter.t;
  dropped : Rp_obs.Counter.t;
}

(* Verdict counters over every inline run, self-generated ICMP traffic
   included (unlike the per-node simulator stats, which count injected
   packets only). *)
let inline_tally =
  let c = Rp_obs.Registry.counter in
  {
    packets = c "ip_core.packets";
    forwarded = c "ip_core.forwarded";
    delivered = c "ip_core.delivered_local";
    absorbed = c "ip_core.absorbed";
    dropped = c "ip_core.dropped";
  }

(* Fragments lost to a full output queue while siblings of the same
   datagram were accepted — the datagram itself is then reported
   [Dropped], since an incomplete fragment set cannot reassemble. *)
let m_frag_drops = Rp_obs.Registry.counter "ip_core.fragment_drops"

type sink =
  | Attribute of Router.t
  | Defer of (int * string) list array

type clock =
  | At of int64
  | Birth

type ctx = {
  aiu : Plugin.t Rp_classifier.Aiu.t;
  routes : Route_table.t;
  gates : Gate.t list;
  meters : Gate.Meters.t;
  tally : tally;
  policy : Fault.policy;
  budget : int option;
  sink : sink;
  shard : int;
  clock : clock;
  local : Router.t option;
}

let inline_ctx router ~now =
  {
    aiu = Router.aiu router;
    routes = router.Router.routes;
    gates = Router.gates router;
    meters = Gate.Meters.default;
    tally = inline_tally;
    policy = router.Router.fault_policy;
    budget = router.Router.cycle_budget;
    sink = Attribute router;
    shard = 0;
    clock = At now;
    local = Some router;
  }

let gate_on ctx g = List.exists (Gate.equal g) ctx.gates
let now_of ctx m = match ctx.clock with At t -> t | Birth -> m.Mbuf.birth_ns
let[@inline] pending verdicts i = match verdicts.(i) with None -> true | Some _ -> false

(* --- latency SLOs ---------------------------------------------------- *)

(* The SLO layer only *reads* the cost-model clock — [Cost.get] is
   free — so Table-3 cycles are byte-identical with SLOs on or off.
   [slo_close] observes the cycles since the packet's ingress stamp;
   [slo_open] and [slo_attrib] keep per-gate cycles on the mbuf when
   exemplar capture is armed. *)

let slo_class = function
  | Enqueued _ -> Rp_obs.Slo.Fwd
  | Delivered_local | Absorbed -> Rp_obs.Slo.Absorb
  | Dropped _ -> Rp_obs.Slo.Drop

let slo_open m =
  if Rp_obs.Slo.armed () then begin
    (* The attribution array is cached on the descriptor (pooled
       descriptors allocate it once), so the armed steady state stays
       GC-silent. *)
    if Array.length m.Mbuf.gate_cycles = 0 then
      m.Mbuf.gate_cycles <- Array.make Gate.count 0
    else Array.fill m.Mbuf.gate_cycles 0 Gate.count 0
  end

let slo_attrib m ~gate cycles =
  let a = m.Mbuf.gate_cycles in
  if Array.length a > 0 then begin
    let g = Gate.to_int gate in
    a.(g) <- a.(g) + cycles
  end

let slo_close ~shard m verdict =
  if Rp_obs.Slo.on () then begin
    let cls = slo_class verdict in
    let cycles = Cost.get () - m.Mbuf.ingress_cycles in
    Rp_obs.Slo.observe ~shard cls cycles;
    if Rp_obs.Slo.armed () && Rp_obs.Slo.is_breach cycles then begin
      let gates = ref [] in
      let a = m.Mbuf.gate_cycles in
      for g = Gate.count - 1 downto 0 do
        if Array.length a > 0 && a.(g) > 0 then
          let name =
            match Gate.of_int g with
            | Some gate -> Gate.name gate
            | None -> string_of_int g
          in
          gates := (name, a.(g)) :: !gates
      done;
      Rp_obs.Slo.capture ~shard ~cls ~cycles
        ~key:(Flow_key.to_string m.Mbuf.key)
        ~gates:!gates ~trace_pkt:m.Mbuf.tseq
    end
  end

(* --- one gate traversal ---------------------------------------------- *)

(* Fault containment (the plugin may be third-party code the router
   does not trust): count the fault and convert it to the fault
   policy.  Inline, the fault is attributed to the instance in the PCU
   at once — which auto-quarantines past the consecutive-fault
   threshold.  On a shard it is recorded against the packet's batch
   slot for the control domain to attribute on drain, so workers never
   mutate shared state.  Nothing here charges the cost model. *)
let contain ctx ~gate ~slot m inst (reason : Fault.reason) =
  Rp_obs.Counter.inc (Gate.Meters.faults ctx.meters gate);
  (* Per-shard meters also feed the process-wide fault count. *)
  if ctx.meters != Gate.Meters.default then
    Rp_obs.Counter.inc (Gate.faults gate);
  let id = inst.Plugin.instance_id in
  (* Faults are rare and diagnostic gold: when tracing is on they are
     recorded even for unsampled packets (pkt 0). *)
  if Rp_obs.Telemetry.on () then
    Rp_obs.Telemetry.record ~ts:(Cost.get ()) ~kind:Rp_obs.Telemetry.Fault
      ~gate:(Gate.to_int gate) ~pkt:m.Mbuf.tseq ~arg:id;
  let why = Fault.reason_to_string reason in
  match ctx.sink with
  | Defer events ->
    events.(slot) <- (id, why) :: events.(slot);
    (match ctx.policy with
     | Fault.Drop_packet -> Plugin.Drop "plugin fault"
     | Fault.Continue_packet | Fault.Unbind -> Plugin.Continue)
  | Attribute router -> (
      Logs.warn (fun l ->
          l "ip_core: contained fault of %a at gate %s: %s" Plugin.pp inst
            (Gate.name gate) why);
      (match Pcu.record_fault router.Router.pcu id ~reason:why with
       | `Quarantine -> ignore (Router.quarantine router id)
       | `Ok -> ());
      match ctx.policy with
      | Fault.Drop_packet -> Plugin.Drop "plugin fault"
      | Fault.Continue_packet -> Plugin.Continue
      | Fault.Unbind ->
        if not (Pcu.is_quarantined router.Router.pcu id) then
          ignore (Router.quarantine router id);
        Plugin.Continue)

(* Classify at [gate] via the engine-shared entry point ({!Classify}),
   which charges the framework costs: the flow hash the first time
   this packet consults the AIU, one gate's invocation overhead, and
   the measured memory accesses of whatever lookups the AIU performed
   (a cached flow costs ~2; the first packet of a flow pays the full
   cold-start resolution).  Then run the bound instance's handler
   under containment: an escaping exception or a per-invocation
   cycle-budget overrun becomes a fault instead of unwinding the
   pipeline.  This is the data path's only call into a handler. *)
let handle ctx ~gate ~slot m =
  let now = now_of ctx m in
  match Classify.at ctx.aiu ~now ~gate m with
  | None -> Plugin.Continue
  | Some (inst, record) -> (
      let binding =
        Rp_classifier.Flow_table.binding record ~gate:(Gate.to_int gate)
      in
      let c0 = Cost.get () in
      match inst.Plugin.handle { Plugin.now_ns = now; binding } m with
      | exception e ->
        contain ctx ~gate ~slot m inst (Fault.Exn (Printexc.to_string e))
      | action -> (
          let spent = Cost.get () - c0 in
          match ctx.budget with
          | Some budget when spent > budget ->
            contain ctx ~gate ~slot m inst (Fault.Budget spent)
          | _ ->
            (match ctx.sink with
             | Attribute router ->
               Pcu.record_success router.Router.pcu inst.Plugin.instance_id
             | Defer _ -> ());
            action))

(* The per-traversal meters of [m] at [gate], which began at cycle
   [c0] and access count [a0]: the sampled Gate_enter/Gate_exit events
   (exit arg = the traversal's memory accesses), the gate's span
   histogram and the SLO attribution.  They only read the [Cost] /
   [Access] counters, so Table-3 figures are untouched.  Returns the
   traversal's cycles. *)
let gate_enter ~gate m ~c0 =
  if m.Mbuf.tseq <> 0 then
    Rp_obs.Telemetry.record ~ts:c0 ~kind:Rp_obs.Telemetry.Gate_enter
      ~gate:(Gate.to_int gate) ~pkt:m.Mbuf.tseq ~arg:0

let gate_exit ~gate m ~c0 ~a0 =
  let cycles = Cost.get () - c0 in
  slo_attrib m ~gate cycles;
  if m.Mbuf.tseq <> 0 then begin
    Rp_obs.Telemetry.record ~ts:(Cost.get ())
      ~kind:Rp_obs.Telemetry.Gate_exit ~gate:(Gate.to_int gate)
      ~pkt:m.Mbuf.tseq
      ~arg:(Rp_lpm.Access.get () - a0);
    Rp_obs.Histogram.observe (Gate.span gate) cycles
  end;
  cycles

(* Gate counters are flushed once per gate per batch: on worker domains
   they are atomics, so this turns per-packet RMWs into one add. *)
let flush_meters ctx ~gate ~live ~cycles ~drops =
  if live > 0 then begin
    Rp_obs.Counter.add (Gate.Meters.dispatch ctx.meters gate) live;
    Rp_obs.Counter.add (Gate.Meters.cycles ctx.meters gate) cycles
  end;
  if drops > 0 then Rp_obs.Counter.add (Gate.Meters.drops ctx.meters gate) drops

(* One gate over every still-live packet of a batch (gate-major order).
   A settled verdict parks a packet for the remaining stages. *)
let run_gate ctx ~gate batch verdicts n =
  let live = ref 0 and cycles = ref 0 and drops = ref 0 in
  for i = 0 to n - 1 do
    match verdicts.(i) with
    | Some _ -> ()
    | None -> (
        incr live;
        let m = batch.(i) in
        let c0 = Cost.get () and a0 = Rp_lpm.Access.get () in
        gate_enter ~gate m ~c0;
        let action = handle ctx ~gate ~slot:i m in
        cycles := !cycles + gate_exit ~gate m ~c0 ~a0;
        match action with
        | Plugin.Continue -> ()
        | Plugin.Consumed -> verdicts.(i) <- Some Absorbed
        | Plugin.Drop why ->
          incr drops;
          verdicts.(i) <- Some (Dropped why))
  done;
  flush_meters ctx ~gate ~live:!live ~cycles:!cycles ~drops:!drops

let run_gates ctx gates batch verdicts n =
  List.iter
    (fun gate -> if gate_on ctx gate then run_gate ctx ~gate batch verdicts n)
    gates

let invoke_gate router ~now ~gate m =
  let verdicts = [| None |] in
  run_gate (inline_ctx router ~now) ~gate [| m |] verdicts 1;
  match verdicts.(0) with
  | None -> Plugin.Continue
  | Some (Dropped why) -> Plugin.Drop why
  | Some _ -> Plugin.Consumed

(* Gates traversed in data-path order, before and after the routing
   decision; scheduling is classified at enqueue time. *)
let gates_pre = [ Gate.Ip_options; Gate.Security_in; Gate.Firewall ]
let gates_post = [ Gate.Congestion; Gate.Security_out; Gate.Stats ]

(* --- router-local stages --------------------------------------------- *)

(* Hand one packet (or fragment) to the output queue, with the same
   containment as a gate handler: an exception escaping an attached
   scheduler is counted at the scheduling gate, attributed to the
   qdisc instance, and treated as a queue drop (a quarantined qdisc is
   detached, so subsequent packets take the default FIFO).  Queue
   rejections count as scheduling-gate drops, matching the drop
   metering of the other gates. *)
let queue_on ctx router ifc ~slot ~binding m =
  let ok =
    match Iface.enqueue ifc ~now:(now_of ctx m) ~binding m with
    | ok ->
      (match ifc.Iface.qdisc with
       | Some inst when ok ->
         Pcu.record_success router.Router.pcu inst.Plugin.instance_id
       | Some _ | None -> ());
      ok
    | exception e ->
      (match ifc.Iface.qdisc with
       | Some inst ->
         ignore
           (contain ctx ~gate:Gate.Scheduling ~slot m inst
              (Fault.Exn (Printexc.to_string e)))
       | None -> Rp_obs.Counter.inc (Gate.faults Gate.Scheduling));
      false
  in
  if (not ok) && gate_on ctx Gate.Scheduling then
    Rp_obs.Counter.inc (Gate.Meters.drops ctx.meters Gate.Scheduling);
  ok

(* Queue [m] (fragmented if needed) on [out].  A datagram larger than
   the egress MTU is split (IPv4 without DF); otherwise it is dropped,
   and [Error mtu] asks for an ICMP "packet too big". *)
let enqueue ctx router ~slot ~binding m out =
  let ifc = Router.iface router out in
  if not (Frag.needs_fragmentation m ~mtu:ifc.Iface.mtu) then
    Ok
      (if queue_on ctx router ifc ~slot ~binding m then Enqueued out
       else Dropped "output queue")
  else
    match Frag.fragment m ~mtu:ifc.Iface.mtu with
    | Ok fragments ->
      let total = List.length fragments in
      let accepted =
        List.fold_left
          (fun acc f ->
            if queue_on ctx router ifc ~slot ~binding f then acc + 1 else acc)
          0 fragments
      in
      let lost = total - accepted in
      if lost > 0 then Rp_obs.Counter.add m_frag_drops lost;
      Ok
        (if accepted = 0 then Dropped "output queue"
         else if lost > 0 then
           Dropped
             (Printf.sprintf "partial fragment loss (%d/%d fragments queued)"
                accepted total)
         else Enqueued out)
    | Error (`Dont_fragment | `V6_never_fragments) -> Error ifc.Iface.mtu

(* --- the pipeline ---------------------------------------------------- *)

(* Per-packet close: drop reason, telemetry end, SLO latency, and
   always-on NetFlow accounting of the packet to its flow record (if
   classification gave it one) at verdict time. *)
let close ctx m verdict =
  (match verdict with
   | Dropped why -> Rp_obs.Drop_reason.count_why why
   | Enqueued _ | Delivered_local | Absorbed -> ());
  let tseq = m.Mbuf.tseq in
  if tseq <> 0 then begin
    let ts = Cost.get () in
    (match verdict with
     | Dropped _ ->
       Rp_obs.Telemetry.record ~ts ~kind:Rp_obs.Telemetry.Drop ~gate:(-1)
         ~pkt:tseq ~arg:0
     | Enqueued _ | Delivered_local | Absorbed -> ());
    Rp_obs.Telemetry.record ~ts ~kind:Rp_obs.Telemetry.Pkt_end ~gate:(-1)
      ~pkt:tseq ~arg:0;
    Rp_obs.Histogram.observe Rp_obs.Telemetry.packet_hist
      (ts - m.Mbuf.ingress_cycles)
  end;
  slo_close ~shard:ctx.shard m verdict;
  Rp_classifier.Flow_table.account
    (Rp_classifier.Aiu.flow_table ctx.aiu)
    m
    ~verdict:
      (match verdict with
       | Enqueued _ -> `Fwd
       | Dropped _ -> `Drop
       | Delivered_local | Absorbed -> `Absorb)

let tally ctx verdicts n =
  let fwd = ref 0 and del = ref 0 and abso = ref 0 and drop = ref 0 in
  for i = 0 to n - 1 do
    match verdicts.(i) with
    | Some (Enqueued _) -> incr fwd
    | Some Delivered_local -> incr del
    | Some Absorbed -> incr abso
    | Some (Dropped _) -> incr drop
    | None -> ()
  done;
  let t = ctx.tally in
  if !fwd > 0 then Rp_obs.Counter.add t.forwarded !fwd;
  if !del > 0 then Rp_obs.Counter.add t.delivered !del;
  if !abso > 0 then Rp_obs.Counter.add t.absorbed !abso;
  if !drop > 0 then Rp_obs.Counter.add t.dropped !drop

(* Every packet — one [process] call, an inline batch, a shard's batch —
   runs through [run]: packets advance stage by stage (entry/TTL,
   pre-routing gates, punt/local delivery, routing, post-routing gates,
   scheduling classification + enqueue, verdict accounting), each stage
   walking the whole batch before the next begins, and a settled
   verdict parks a packet for the remaining stages.  Per-packet
   verdicts, cost-model charges and metric totals are therefore the
   same for a batch as for the packets one at a time; only the
   interleaving of gate invocations across packets differs, so plugins
   whose behavior depends on cross-packet invocation order may observe
   it.  The per-batch verdict scratch is allocated per call:
   self-generated traffic (ICMP errors, echo replies) re-enters
   [process] from inside a batch. *)
let rec run ctx batch ~n ~emit =
  if n < 0 || n > Array.length batch then
    invalid_arg "Ip_core.run: n out of range";
  let verdicts = Array.make n None in
  if n > 0 then Rp_obs.Counter.add ctx.tally.packets n;
  for i = 0 to n - 1 do
    entry ctx batch.(i) ~slot:i verdicts
  done;
  run_gates ctx gates_pre batch verdicts n;
  (match ctx.local with
   | Some router ->
     for i = 0 to n - 1 do
       if pending verdicts i && deliver_local ctx router batch.(i) then
         verdicts.(i) <- Some Delivered_local
     done
   | None -> ());
  run_gates ctx [ Gate.Routing ] batch verdicts n;
  for i = 0 to n - 1 do
    if pending verdicts i then route ctx batch.(i) ~slot:i verdicts
  done;
  run_gates ctx gates_post batch verdicts n;
  schedule ctx batch verdicts n;
  for i = 0 to n - 1 do
    let m = batch.(i) in
    let verdict = match verdicts.(i) with Some v -> v | None -> assert false in
    close ctx m verdict;
    emit m verdict
      (match ctx.sink with Defer events -> List.rev events.(i) | Attribute _ -> [])
  done;
  tally ctx verdicts n

(* Entry: ingress stamp (read by [close] for the telemetry and SLO
   latency histograms), sampling decision, base-forward charge, arrival
   accounting, TTL.  Self-generated packets re-enter on fresh mbufs
   and get their own sampling decision.  Nothing in the telemetry path
   charges the cost model, so traced and untraced runs report
   identical Table-3 cycles. *)
and entry ctx m ~slot verdicts =
  (match ctx.sink with Defer events -> events.(slot) <- [] | Attribute _ -> ());
  let ts = Cost.get () in
  m.Mbuf.ingress_cycles <- ts;
  if Rp_obs.Telemetry.on () && m.Mbuf.tseq = 0 then
    m.Mbuf.tseq <- Rp_obs.Telemetry.sample ();
  let tseq = m.Mbuf.tseq in
  if tseq <> 0 then
    Rp_obs.Telemetry.record ~ts ~kind:Rp_obs.Telemetry.Pkt_start ~gate:(-1)
      ~pkt:tseq ~arg:m.Mbuf.len;
  slo_open m;
  Cost.charge Cost.base_forward;
  (match ctx.local with
   | Some router -> Iface.count_rx (Router.iface router m.Mbuf.key.Flow_key.iface) m
   | None -> ());
  if m.Mbuf.ttl <= 1 then begin
    (match ctx.local with
     | Some router -> icmp_error router ~now:(now_of ctx m) m Icmp.Time_exceeded
     | None -> ());
    verdicts.(slot) <- Some (Dropped "ttl expired")
  end
  else m.Mbuf.ttl <- m.Mbuf.ttl - 1

(* Local punt — protocols handled by a daemon on this router (e.g.
   SSP); the handler decides whether the packet also continues
   downstream — then local delivery, answering echo requests. *)
and deliver_local ctx router m =
  let now = now_of ctx m in
  match Hashtbl.find_opt router.Router.punts m.Mbuf.key.Flow_key.proto with
  | Some handler when handler ~now m = Router.Punt_consume -> true
  | Some _ | None ->
    Router.is_local router m.Mbuf.key.Flow_key.dst
    && (answer_echo router ~now m; true)

(* Routing: a routing-gate plugin may already have fixed the output
   interface (L4 switching); otherwise consult the route table. *)
and route ctx m ~slot verdicts =
  match m.Mbuf.out_iface with
  | Some _ -> ()
  | None -> (
      match Route_table.lookup ctx.routes m.Mbuf.key.Flow_key.dst with
      | Some r ->
        m.Mbuf.out_iface <- Some r.Route_table.iface;
        m.Mbuf.next_hop <-
          (match r.Route_table.next_hop with
           | Some _ as nh -> nh
           | None -> Some m.Mbuf.key.Flow_key.dst)
      | None ->
        (match ctx.local with
         | Some router ->
           icmp_error router ~now:(now_of ctx m) m
             (Icmp.Dest_unreachable Icmp.Net_unreachable)
         | None -> ());
        verdicts.(slot) <- Some (Dropped "no route to destination"))

(* Scheduling-gate classification (metered like any gate), then
   fragmentation and enqueue on the egress interface.  Without a
   router (a shard) a routed packet's verdict is [Enqueued out]: it
   leaves the shard for [out] and no interface queue runs. *)
and schedule ctx batch verdicts n =
  let gate = Gate.Scheduling in
  let sched_on = gate_on ctx gate in
  let live = ref 0 and cycles = ref 0 in
  for i = 0 to n - 1 do
    match verdicts.(i) with
    | Some _ -> ()
    | None ->
      let m = batch.(i) in
      let out = match m.Mbuf.out_iface with Some o -> o | None -> assert false in
      verdicts.(i) <-
        Some
          (match ctx.local with
           | None -> Enqueued out
           | Some router -> (
               let binding =
                 if not sched_on then None
                 else begin
                   incr live;
                   let c0 = Cost.get () and a0 = Rp_lpm.Access.get () in
                   gate_enter ~gate m ~c0;
                   let b =
                     match Classify.at ctx.aiu ~now:(now_of ctx m) ~gate m with
                     | Some (_inst, record) ->
                       Rp_classifier.Flow_table.binding record
                         ~gate:(Gate.to_int gate)
                     | None -> None
                   in
                   cycles := !cycles + gate_exit ~gate m ~c0 ~a0;
                   b
                 end
               in
               match enqueue ctx router ~slot:i ~binding m out with
               | Ok v -> v
               | Error mtu ->
                 icmp_error router ~now:(now_of ctx m) m
                   (Icmp.Packet_too_big mtu);
                 Dropped "needs fragmentation"))
  done;
  flush_meters ctx ~gate ~live:!live ~cycles:!cycles ~drops:0

and process router ~now m =
  let verdict = ref Absorbed in
  run (inline_ctx router ~now) [| m |] ~n:1 ~emit:(fun _ v _ -> verdict := v);
  !verdict

(* Answer ICMP echo requests addressed to the router itself (so the
   router is pingable end to end). *)
and answer_echo router ~now (m : Mbuf.t) =
  let proto = m.Mbuf.key.Flow_key.proto in
  let family =
    match m.Mbuf.version with Mbuf.V4 -> `V4 | Mbuf.V6 -> `V6
  in
  if proto = Proto.icmp || proto = Proto.icmpv6 then
    match m.Mbuf.raw with
    | None -> ()
    | Some raw ->
      (match Icmp.parse ~family raw with
       | Ok { Icmp.message = Icmp.Echo_request { ident; seq }; payload } ->
         let body =
           Icmp.serialize ~family
             { Icmp.message = Icmp.Echo_reply { ident; seq }; payload }
         in
         let key =
           Flow_key.make ~src:m.Mbuf.key.Flow_key.dst
             ~dst:m.Mbuf.key.Flow_key.src ~proto ~sport:0 ~dport:0
             ~iface:m.Mbuf.key.Flow_key.iface
         in
         let hdr = match family with `V4 -> Ipv4_header.size | `V6 -> Ipv6_header.size in
         let reply = Mbuf.synth ~key ~len:(hdr + Bytes.length body) () in
         reply.Mbuf.raw <- Some body;
         ignore (process router ~now reply)
       | Ok _ | Error _ -> ())

(* Generate an ICMP error about [orig] back toward its source, routed
   through this router's own data path.  Per the RFC rules: never
   about ICMP itself, and only when the router has an address of the
   right family to source it from. *)
and icmp_error router ~now (orig : Mbuf.t) message =
  let proto = orig.Mbuf.key.Flow_key.proto in
  if proto <> Proto.icmp && proto <> Proto.icmpv6 then
    match Router.local_addr_for router orig.Mbuf.key.Flow_key.src with
    | None -> ()
    | Some src ->
      let family, icmp_proto, hdr =
        match orig.Mbuf.version with
        | Mbuf.V4 -> (`V4, Proto.icmp, Ipv4_header.size)
        | Mbuf.V6 -> (`V6, Proto.icmpv6, Ipv6_header.size)
      in
      let payload =
        match orig.Mbuf.raw with
        | Some raw -> Bytes.sub_string raw 0 (min 28 (Bytes.length raw))
        | None -> ""
      in
      let body = Icmp.serialize ~family { Icmp.message; payload } in
      let key =
        Flow_key.make ~src ~dst:orig.Mbuf.key.Flow_key.src ~proto:icmp_proto
          ~sport:0 ~dport:0 ~iface:orig.Mbuf.key.Flow_key.iface
      in
      let m = Mbuf.synth ~key ~len:(hdr + Bytes.length body) () in
      m.Mbuf.raw <- Some body;
      router.Router.icmp_sent <- router.Router.icmp_sent + 1;
      ignore (process router ~now m)

let process_batch router ?emit ~now batch ~n =
  run (inline_ctx router ~now) batch ~n
    ~emit:(match emit with Some f -> fun m v _ -> f m v | None -> fun _ _ _ -> ())
