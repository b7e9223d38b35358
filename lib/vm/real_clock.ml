external monotonic_ns : unit -> int = "pthreads_monotonic_ns" [@@noalloc]

(* Bound once, when the module is initialised, so every domain reads from
   the same origin and the int nanosecond values stay small. *)
let origin = monotonic_ns ()

let now_ns () = monotonic_ns () - origin
let now_s () = float_of_int (now_ns ()) /. 1e9
