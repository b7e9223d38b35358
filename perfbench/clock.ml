(* Host time for every measurement in the benchmark: bechamel's
   clock_gettime(CLOCK_MONOTONIC) stub, nanoseconds, no allocation.  Not
   [Vm.Real_clock], which is gettimeofday at 1 us resolution and can step. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
