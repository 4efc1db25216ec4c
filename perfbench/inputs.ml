(* The three workloads and their seeded inputs.

   Inputs are generated before anything is timed, with the repository's
   own traffic generator ([Rp_sim.Synth]), into flat arrays: per packet
   the index of its flow key (keys are interned, one value per flow),
   its length and its TTL.  The timed loop only replays these arrays,
   so the generator's cost stays out of the router's numbers and the
   program under test sees nothing but the generated packets. *)

open Rp_pkt

type kind = Fastpath_inline | Churn_inline | Fastpath_sharded

type workload = {
  name : string;
  kind : kind;
  open_rate_pps : int;
      (* fixed offered rate of the open-loop phase: about half the
         closed-loop Mpps this workload measured when the benchmark was
         defined; never derived at run time, so a faster commit sees
         the same load *)
  update_every : int;
      (* packets between rule updates under closed-loop traffic; 0 = a
         block of updates between closed-loop intervals instead *)
  flow_max : int option;  (* flow-table cap passed to [Router.create] *)
  packets : int;  (* input array length, a power of two *)
}

let workloads =
  [
    {
      name = "fastpath-inline";
      kind = Fastpath_inline;
      open_rate_pps = 300_000;
      update_every = 0;
      flow_max = None;
      packets = 1 lsl 18;
    };
    {
      name = "churn-inline";
      kind = Churn_inline;
      open_rate_pps = 60_000;
      update_every = 0;
      flow_max = Some 4_096;
      packets = 1 lsl 20;
    };
    {
      name = "fastpath-sharded";
      kind = Fastpath_sharded;
      open_rate_pps = 250_000;
      update_every = 4096;
      flow_max = None;
      packets = 1 lsl 18;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* One packet in [slow_one_in] of churn-inline arrives with TTL 1 and
   must come out dropped as "ttl expired" (the measured slow path). *)
let slow_one_in = 100

(* Narrow-filter bind/unbind pairs replayed by the rule churn. *)
let rule_pairs = 64

type t = {
  keys : Flow_key.t array;  (* distinct flow keys, first-seen order *)
  key_of : int array;  (* per packet: index into [keys] *)
  len : int array;
  ttl : int array;
  rules : (string * string) array;  (* (bind, unbind) pmgr commands *)
  slow_path : int;  (* packets with TTL 1 *)
  digest : string;
}

module Keys = Hashtbl.Make (struct
  type t = Flow_key.t

  let equal = Flow_key.equal
  let hash = Flow_key.hash
end)

let synth w ~seed ~pool =
  match w.kind with
  | Fastpath_inline | Fastpath_sharded ->
    Rp_sim.Synth.create ~seed ~flows:256 ~size_mix:[ (64, 1) ] ~pool ()
  | Churn_inline ->
    Rp_sim.Synth.create ~seed ~flows:100_000
      ~popularity:(Rp_sim.Synth.Zipf 0.99)
      ~flow_packets:(Rp_sim.Synth.Pareto (1.2, 4.0))
      ~size_mix:Rp_sim.Synth.default_size_mix ~pool ()

let digest_of ~keys ~key_of ~len ~ttl =
  let b = Buffer.create (16 * Array.length key_of) in
  Array.iter
    (fun k ->
      Buffer.add_string b (Flow_key.to_string k);
      Buffer.add_char b '\n')
    keys;
  Array.iteri
    (fun i k ->
      Buffer.add_int32_le b (Int32.of_int k);
      Buffer.add_uint16_le b len.(i);
      Buffer.add_uint8 b ttl.(i))
    key_of;
  Digest.to_hex (Digest.string (Buffer.contents b))

let generate w ~seed =
  let n = w.packets in
  let pool = Pool.create ~buf_size:0 ~capacity:64 () in
  let link = Link.create ~capacity:64 () in
  let gen = synth w ~seed ~pool in
  let key_of = Array.make n 0 and len = Array.make n 0 in
  let index = Keys.create 4096 in
  let keys = ref [] and distinct = ref 0 in
  let dummy = Mbuf.synth ~key:(Rp_sim.Traffic.flow_key ~id:0 ()) ~len:0 () in
  let scratch = Array.make 32 dummy in
  let i = ref 0 in
  while !i < n do
    ignore (Rp_sim.Synth.pull gen ~now_ns:0L link ~max:(min 32 (n - !i)));
    let got = Link.receive_batch link ~max:32 scratch in
    for j = 0 to got - 1 do
      let m = scratch.(j) in
      let k =
        match Keys.find_opt index m.Mbuf.key with
        | Some k -> k
        | None ->
          let k = !distinct in
          Keys.add index m.Mbuf.key k;
          keys := m.Mbuf.key :: !keys;
          incr distinct;
          k
      in
      key_of.(!i) <- k;
      len.(!i) <- m.Mbuf.len;
      Pool.free pool m;
      incr i
    done
  done;
  let keys = Array.of_list (List.rev !keys) in
  let rng = Random.State.make [| seed; 7919 |] in
  let slow = w.kind = Churn_inline in
  let ttl =
    Array.init n (fun _ ->
        if slow && Random.State.int rng slow_one_in = 0 then 1
        else 2 + Random.State.int rng 254)
  in
  let slow_path =
    Array.fold_left (fun a t -> if t <= 1 then a + 1 else a) 0 ttl
  in
  (* On churn-inline and fastpath-sharded each pair names one flow of
     the input, spread evenly over it, so an update invalidates a flow
     the traffic really uses; on fastpath-inline it names a flow the
     input never carries, so its traffic stays all cache hits.
     Instance 1 is the empty plugin at the ip-options gate: the extra
     binding changes no verdict. *)
  let rules =
    Array.init rule_pairs (fun p ->
        let k =
          if w.kind <> Fastpath_inline then keys.(key_of.(p * (n / rule_pairs)))
          else Rp_sim.Traffic.flow_key ~id:(Array.length keys + p) ()
        in
        let f =
          Rp_classifier.Filter.(to_string (exact_of_key k))
        in
        ("bind 1 " ^ f, "unbind 1 " ^ f))
  in
  let digest = digest_of ~keys ~key_of ~len ~ttl in
  { keys; key_of; len; ttl; rules; slow_path; digest }
