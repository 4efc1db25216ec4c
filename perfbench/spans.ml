(* The benchmark's clock and the traced run's span buffer.

   Spans are recorded by the pump loop around its own calls into the
   router's libraries (the program under test carries no stamps of its
   own).  Every span has a name, start and end in monotonic ns, the
   span that caused it (its batch's root span) and the id of the batch
   it belongs to.  The buffer is preallocated; spans past its capacity
   are still summed per name but not stored, so the per-layer figures
   cover the whole traced phase while the written trace stays small. *)

(* Monotonic wall clock in ns (CLOCK_MONOTONIC through bechamel's
   allocation-free stub). *)
let[@inline] now () = Int64.to_int (Monotonic_clock.now ())

type name =
  | Batch  (** one pump iteration: the root of every other span *)
  | Alloc  (** [Pool.alloc] plus filling the descriptor from the input *)
  | Link  (** [Link.transmit] of the batch and [Link.receive_batch] *)
  | Submit  (** [Engine.submit_batch] *)
  | Drain  (** [Engine.drain] *)
  | Check  (** the benchmark's verdict check of the drained results *)
  | Free  (** [Pool.free] of the drained descriptors *)
  | Pmgr_exec  (** one [Pmgr.exec] bind/unbind *)
  | Sync_wait  (** spinning until [Engine.synced] after an update *)
  | Flush  (** [Engine.flush] at a phase end *)

let names =
  [|
    Batch; Alloc; Link; Submit; Drain; Check; Free; Pmgr_exec; Sync_wait; Flush;
  |]

let index = function
  | Batch -> 0
  | Alloc -> 1
  | Link -> 2
  | Submit -> 3
  | Drain -> 4
  | Check -> 5
  | Free -> 6
  | Pmgr_exec -> 7
  | Sync_wait -> 8
  | Flush -> 9

let to_string = function
  | Batch -> "batch"
  | Alloc -> "alloc"
  | Link -> "link"
  | Submit -> "submit"
  | Drain -> "drain"
  | Check -> "check"
  | Free -> "free"
  | Pmgr_exec -> "pmgr_exec"
  | Sync_wait -> "sync_wait"
  | Flush -> "flush"

let kinds = Array.length names

type t = {
  cap : int;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  batch : int array;
  mutable n : int;
  mutable batches : int;
  total_ns : int array;  (* per name *)
  count : int array;  (* spans per name *)
  items : int array;  (* packets (or operations) covered, per name *)
  words : float array;  (* calling-domain minor words, per name *)
}

let create ~capacity =
  {
    cap = capacity;
    name = Array.make capacity 0;
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    parent = Array.make capacity (-1);
    batch = Array.make capacity 0;
    n = 0;
    batches = 0;
    total_ns = Array.make kinds 0;
    count = Array.make kinds 0;
    items = Array.make kinds 0;
    words = Array.make kinds 0.0;
  }

(* Open a batch: returns the root span's slot (-1 once the buffer is
   full).  The root's end is filled in by [close_batch]. *)
let open_batch t ~start =
  t.batches <- t.batches + 1;
  if t.n < t.cap then begin
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- index Batch;
    t.start.(i) <- start;
    t.stop.(i) <- start;
    t.parent.(i) <- -1;
    t.batch.(i) <- t.batches;
    i
  end
  else -1

let close_batch t root ~start ~stop ~items =
  let k = index Batch in
  t.total_ns.(k) <- t.total_ns.(k) + (stop - start);
  t.count.(k) <- t.count.(k) + 1;
  t.items.(k) <- t.items.(k) + items;
  if root >= 0 then t.stop.(root) <- stop

(* Record one child span of batch [root]. *)
let add t nm ~root ~start ~stop ~items =
  let k = index nm in
  t.total_ns.(k) <- t.total_ns.(k) + (stop - start);
  t.count.(k) <- t.count.(k) + 1;
  t.items.(k) <- t.items.(k) + items;
  if t.n < t.cap then begin
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- k;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.parent.(i) <- root;
    t.batch.(i) <- t.batches
  end

let add_words t nm w =
  let k = index nm in
  t.words.(k) <- t.words.(k) +. w

let total_ns t nm = t.total_ns.(index nm)
let items t nm = t.items.(index nm)
let words t nm = t.words.(index nm)

(* Chrome trace-event JSON ("X" complete events, µs timestamps), the
   format Perfetto and chrome://tracing load. *)
let write_chrome t path =
  let oc = open_out path in
  let t0 = if t.n > 0 then t.start.(0) else 0 in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\
       \"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
       \"args\":{\"span\":%d,\"parent\":%d,\"batch\":%d}}\n"
      (if i = 0 then "" else ",")
      (to_string names.(t.name.(i)))
      (float_of_int (t.start.(i) - t0) /. 1e3)
      (float_of_int (t.stop.(i) - t.start.(i)) /. 1e3)
      i t.parent.(i) t.batch.(i)
  done;
  output_string oc "]}\n";
  close_out oc
