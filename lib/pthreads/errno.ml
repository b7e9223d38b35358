type t =
  | EINVAL
  | EBUSY
  | EDEADLK
  | ESRCH
  | ETIMEDOUT
  | EPERM
  | EINTR
  | EAGAIN

(* 4.3 BSD / SunOS 4.x numbering; must stay in sync with Libc_r.Errno_r and
   with the historical Flat.status constants. *)
let to_int = function
  | EPERM -> 1
  | ESRCH -> 3
  | EINTR -> 4
  | EAGAIN -> 11
  | EBUSY -> 16
  | EINVAL -> 22
  | EDEADLK -> 35
  | ETIMEDOUT -> 60

let all = [ EPERM; ESRCH; EINTR; EAGAIN; EBUSY; EINVAL; EDEADLK; ETIMEDOUT ]
let of_int n = List.find_opt (fun e -> to_int e = n) all

let to_string = function
  | EPERM -> "EPERM"
  | ESRCH -> "ESRCH"
  | EINTR -> "EINTR"
  | EAGAIN -> "EAGAIN"
  | EBUSY -> "EBUSY"
  | EINVAL -> "EINVAL"
  | EDEADLK -> "EDEADLK"
  | ETIMEDOUT -> "ETIMEDOUT"

let of_string s = List.find_opt (fun e -> to_string e = s) all
let pp fmt e = Format.pp_print_string fmt (to_string e)
