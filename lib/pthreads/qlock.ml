(* An alias over [Stdlib.Mutex], the lock the shards take.  Nothing in the
   library uses it: it exists only for the benchmark ladder's [qlock.*]
   rows. *)

type t = Stdlib.Mutex.t
type token = unit

let create = Stdlib.Mutex.create
let acquire = Stdlib.Mutex.lock
let release t () = Stdlib.Mutex.unlock t
let with_lock = Stdlib.Mutex.protect
