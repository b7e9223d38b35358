(** Typed POSIX error codes.

    The library's language-independent surface ({!Flat}) reports failures as
    plain [int] statuses for C parity, exactly as [pthread_*] functions do.
    This module gives those codes a typed spelling so OCaml callers — and the
    fault-injection layer, which must distinguish an {e injected} failure from
    a genuine bug — can match on constructors instead of magic numbers.

    The integer values are the 4.3 BSD / SunOS 4.x [errno] numbers the paper's
    library would have returned, and they agree with {!Libc_r.Errno_r}. *)

type t =
  | EINVAL  (** invalid argument (bad ceiling, foreign mutex, bad prio) *)
  | EBUSY  (** resource busy ([try_lock] on a held mutex) *)
  | EDEADLK  (** deadlock would result (relock, join with self) *)
  | ESRCH  (** no such thread *)
  | ETIMEDOUT  (** timed wait expired *)
  | EPERM  (** operation not permitted (unlock by non-owner) *)
  | EINTR  (** interrupted call (injected or signal-induced) *)
  | EAGAIN  (** resource temporarily unavailable *)

val to_int : t -> int
(** Wire representation: [EPERM] = 1, [ESRCH] = 3, [EINTR] = 4, [EAGAIN] = 11,
    [EBUSY] = 16, [EINVAL] = 22, [EDEADLK] = 35, [ETIMEDOUT] = 60. *)

val of_int : int -> t option
(** Inverse of {!to_int}; [None] for any other integer (including 0, which is
    success and not an error). *)

val to_string : t -> string
(** Conventional name, e.g. ["EDEADLK"]. *)

val of_string : string -> t option
(** Inverse of {!to_string}. *)

val pp : Format.formatter -> t -> unit
