(* Output helpers used by every section. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

let row fmt = Printf.printf fmt

(* Simple wall-clock measurement of [f] repeated [n] times, ns each. *)
let time_ns n f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int n

let mbps bps = bps /. 1e6
