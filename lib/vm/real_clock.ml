(* Anchor at the first reading so the int nanosecond values stay far from
   overflow and line up with a fresh Clock.t reading zero-ish. *)
let origin = ref None

let raw_ns () = Int64.to_int (Int64.mul (Int64.of_float (Unix.gettimeofday () *. 1e6)) 1000L)

let now_ns () =
  let raw = raw_ns () in
  let o = match !origin with Some o -> o | None -> origin := Some raw; raw in
  let ns = raw - o in
  if ns < 0 then 0 else ns

let now_s () = float_of_int (now_ns ()) /. 1e9
