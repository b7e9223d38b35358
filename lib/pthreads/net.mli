(** Loopback stream sockets over either backend — one API, two transports.

    On the {b Unix} backend ([Vm.Real_kernel]) these are real nonblocking
    TCP sockets on 127.0.0.1, driven through the backend's
    {!Vm.Backend.net_ops}.  A would-block operation puts its thread in
    the socket's read or write slot and blocks on the engine; when the
    backend's poll fires the slot, the engine wakes that thread directly
    (no signal) and the operation is retried.  A connect waits the same
    way, so it blocks its thread, never the engine.

    On the {b virtual} backend the same API is served by deterministic
    in-process pipes: per-direction byte buffers kept as plain data under
    the kernel flag, each with its own engine I/O wait
    ({!Engine.io_block}), so server code is visible to the model checker
    (every pipe and listener has a footprint key) and the sanitizer (a
    transfer is a happens-before edge), and runs in virtual time.

    Handler code written against this module runs unmodified on both
    backends.  All calls must be made from a thread of the engine's
    process; blocking calls are scheduling points.  A blocked {!read},
    {!write} or {!accept} is an interruption point: a cancelled thread
    leaves the connection as it was. *)

open Types

type listener
type conn

val listen : engine -> ?backlog:int -> port:int -> unit -> listener
(** Bind and listen on loopback.  [port = 0] picks a free port (read it
    back with {!port}).  [backlog] defaults to 128 (ignored by the
    virtual transport, which never refuses). *)

val port : engine -> listener -> int
(** The actually bound port. *)

val accept : engine -> listener -> conn
(** Wait for and return the next incoming connection.
    @raise Types.Error with [Errno.EINVAL] if the listener is closed. *)

val connect : engine -> port:int -> conn
(** Connect to a loopback listener.
    @raise Types.Error with [Errno.EINVAL] when nothing listens there. *)

val read : engine -> conn -> bytes -> pos:int -> len:int -> int
(** Read at most [len] bytes, blocking until at least one is available.
    Returns 0 at end of stream (peer closed).
    @raise Invalid_argument if [pos] and [len] are not a range of the
    buffer. *)

val write : engine -> conn -> bytes -> pos:int -> len:int -> int
(** Write at most [len] bytes, blocking until at least one can be
    written; returns the number written (may be short on the Unix
    backend).  Writing to a closed peer returns 0.
    @raise Invalid_argument as {!read}. *)

val write_all : engine -> conn -> bytes -> pos:int -> len:int -> unit
(** {!write} until all [len] bytes are out (stops early if the peer
    closed). *)

val close : engine -> conn -> unit
(** Close both directions; the peer's pending and future reads return
    EOF.  Threads blocked on this connection wake, and its reads and
    writes return 0 from then on.  Idempotent. *)

val close_listener : engine -> listener -> unit
(** Stop accepting; threads blocked in {!accept} get [Errno.EINVAL]. *)
