(* Router, plugins, engine, pool and link of one workload: everything
   [setup_s] times.

   The router is the Table-3 "plugin framework" row: empty plugins
   bound by wildcard at the ip-options, security-in and stats gates,
   plus 13 inert filters at ip-options (16 filters installed).
   churn-inline adds the Table-3 DRR row on top: DRR attached to the
   egress interface and bound at the scheduling gate. *)

open Rp_pkt
open Rp_core
module Engine = Rp_engine.Engine

let ingress = 0
let egress = 1

(* Descriptors in flight are bounded by the pool, and the pool is no
   larger than an engine RX or TX ring, so no ring can overflow: any
   backpressure drop is a failure, not load shedding.  The open loop
   uses the whole pool to ride out host stalls (8192 packets is 27 ms
   at 300 kpps); the closed loop keeps [window] packets in flight. *)
let pool_capacity = 8192
let window = 1024

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let pmgr r cmd = ok cmd (Rp_control.Pmgr.exec r cmd)
let instance_of out = Scanf.sscanf out "instance %d" Fun.id

let empty_plugins =
  [
    (Gate.Ip_options, "e-opt");
    (Gate.Security_in, "e-sec");
    (Gate.Stats, "e-stat");
  ]

let install_inert_filters r ~gate ~count =
  let aiu = Router.aiu r in
  for i = 1 to count do
    let f =
      Rp_classifier.Filter.v4
        ~src:(Prefix.make (Ipaddr.v4 172 16 i 0) 24)
        ~proto:Proto.tcp ()
    in
    Rp_classifier.Aiu.bind aiu ~gate:(Gate.to_int gate) f
      (Plugin.simple ~instance_id:(9000 + i) ~code:0 ~plugin_name:"inert" ~gate
         (fun _ _ -> Plugin.Continue))
  done

(* Returns the router and the DRR instance id (churn-inline only). *)
let build_router (w : Inputs.workload) =
  let gates = List.map fst empty_plugins in
  let gates =
    match w.kind with
    | Inputs.Churn_inline -> gates @ [ Gate.Scheduling ]
    | Inputs.Fastpath_inline | Inputs.Fastpath_sharded -> gates
  in
  let ifaces =
    [
      Iface.create ~id:ingress ();
      Iface.create ~id:egress ~bandwidth_bps:10_000_000_000L ();
    ]
  in
  let r =
    Router.create ~mode:Router.Plugins ~gates ?flow_max:w.flow_max ~ifaces ()
  in
  Router.add_route r (Prefix.of_string "192.168.0.0/16") ~iface:egress ();
  List.iter
    (fun (gate, name) ->
      ok name (Pcu.modload r.Router.pcu (Empty_plugin.make ~gate ~name));
      let id = instance_of (pmgr r ("create " ^ name)) in
      ignore (pmgr r (Printf.sprintf "bind %d <*, *, *, *, *, *>" id)))
    empty_plugins;
  install_inert_filters r ~gate:Gate.Ip_options ~count:13;
  let drr =
    match w.kind with
    | Inputs.Churn_inline ->
      ignore (pmgr r "modload drr");
      let id = instance_of (pmgr r "create drr") in
      ignore (pmgr r (Printf.sprintf "attach %d %d" id egress));
      ignore (pmgr r (Printf.sprintf "bind %d <*, *, UDP, *, *, *>" id));
      Some id
    | Inputs.Fastpath_inline | Inputs.Fastpath_sharded -> None
  in
  (r, drr)

type t = {
  router : Router.t;
  engine : Engine.t;
  pool : Pool.t;
  link : Link.t;
  drr : int option;
}

let mode (w : Inputs.workload) ~shards =
  match w.kind with
  | Inputs.Fastpath_sharded -> Engine.Sharded shards
  | Inputs.Fastpath_inline | Inputs.Churn_inline -> Engine.Inline

(* Build everything; for the sharded engine, return only once every
   worker has compiled the first snapshot. *)
let build w ~shards =
  let router, drr = build_router w in
  let engine =
    Engine.create ~rx_capacity:pool_capacity ~tx_capacity:pool_capacity
      (mode w ~shards) router
  in
  while not (Engine.synced engine) do
    Domain.cpu_relax ()
  done;
  let pool = Pool.create ~capacity:pool_capacity () in
  let link = Link.create ~capacity:256 () in
  { router; engine; pool; link; drr }
