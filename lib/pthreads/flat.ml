open Types

type status = int

(* Status codes are the wire representation of [Errno.t]: the numbers are
   unchanged from the bare-int days, but they are now derived from the
   typed constructors rather than being their own source of truth. *)
let ok = 0
let eperm = Errno.to_int Errno.EPERM
let esrch = Errno.to_int Errno.ESRCH
let eintr = Errno.to_int Errno.EINTR
let eagain = Errno.to_int Errno.EAGAIN
let ebusy = Errno.to_int Errno.EBUSY
let einval = Errno.to_int Errno.EINVAL
let edeadlk = Errno.to_int Errno.EDEADLK
let etimedout = Errno.to_int Errno.ETIMEDOUT
let errno_of_status s = Errno.of_int s
let status_of_errno = Errno.to_int

let strstatus = function
  | 0 -> "OK"
  | n -> (
      match Errno.of_int n with
      | Some e -> Errno.to_string e
      | None -> "E#" ^ string_of_int n)

type handle = int

(* Handle tables, one set per simulated process. *)
type tables = {
  mutexes : (handle, mutex) Hashtbl.t;
  conds : (handle, cond) Hashtbl.t;
  mutable next : handle;
}

let registry : (engine * tables) list ref = ref []

let tables_for eng =
  match List.assq_opt eng !registry with
  | Some t -> t
  | None ->
      let t =
        { mutexes = Hashtbl.create 16; conds = Hashtbl.create 16; next = 1 }
      in
      registry := (eng, t) :: !registry;
      t

let fresh tb =
  let h = tb.next in
  tb.next <- h + 1;
  h

(* ---------------- mutexes ---------------- *)

let mutex_init eng ?(protocol = `None) () =
  let tb = tables_for eng in
  match
    match protocol with
    | `None -> Ok (Mutex.create eng ())
    | `Inherit -> Ok (Mutex.create eng ~protocol:Inherit_protocol ())
    | `Ceiling c -> (
        try Ok (Mutex.create eng ~protocol:Ceiling_protocol ~ceiling:c ())
        with Types.Error (e, _) -> Error (Errno.to_int e))
  with
  | Ok m ->
      let h = fresh tb in
      Hashtbl.replace tb.mutexes h m;
      (ok, h)
  | Error e -> (e, -1)

let with_mutex eng h f =
  match Hashtbl.find_opt (tables_for eng).mutexes h with
  | None -> einval
  | Some m -> f m

let mutex_destroy eng h =
  let tb = tables_for eng in
  match Hashtbl.find_opt tb.mutexes h with
  | None -> einval
  | Some m ->
      if Mutex.is_locked m || Mutex.waiter_count m > 0 then ebusy
      else begin
        Hashtbl.remove tb.mutexes h;
        ok
      end

let mutex_lock eng h =
  with_mutex eng h (fun m ->
      try
        Mutex.lock eng m;
        ok
      with Types.Error (e, _) -> Errno.to_int e)

let mutex_trylock eng h =
  with_mutex eng h (fun m ->
      try if Mutex.try_lock eng m then ok else ebusy
      with Types.Error (e, _) -> Errno.to_int e)

let mutex_unlock eng h =
  with_mutex eng h (fun m ->
      try
        Mutex.unlock eng m;
        ok
      with Types.Error (e, _) -> Errno.to_int e)

(* ---------------- condition variables ---------------- *)

let cond_init eng () =
  let tb = tables_for eng in
  let c = Cond.create eng () in
  let h = fresh tb in
  Hashtbl.replace tb.conds h c;
  (ok, h)

let with_cond eng h f =
  match Hashtbl.find_opt (tables_for eng).conds h with
  | None -> einval
  | Some c -> f c

let cond_destroy eng h =
  let tb = tables_for eng in
  match Hashtbl.find_opt tb.conds h with
  | None -> einval
  | Some c ->
      if Cond.waiter_count c > 0 then ebusy
      else begin
        Hashtbl.remove tb.conds h;
        ok
      end

let cond_wait eng hc hm =
  with_cond eng hc (fun c ->
      with_mutex eng hm (fun m ->
          try
            match Cond.wait eng c m with
            | Cond.Signaled -> ok
            (* DCE-draft semantics: an interrupted wait (handler run,
               injected spurious wakeup) reports EINTR so the caller knows
               to re-evaluate the predicate *)
            | Cond.Interrupted -> eintr
            | Cond.Timed_out -> etimedout (* unreachable for untimed waits *)
          with Types.Error (e, _) -> Errno.to_int e))

let cond_timedwait eng hc hm ~deadline_ns =
  with_cond eng hc (fun c ->
      with_mutex eng hm (fun m ->
          try
            match Cond.wait_until eng c m ~deadline_ns with
            | Cond.Timed_out -> etimedout
            | Cond.Signaled -> ok
            | Cond.Interrupted -> eintr
          with Types.Error (e, _) -> Errno.to_int e))

let cond_signal eng h =
  with_cond eng h (fun c ->
      Cond.signal eng c;
      ok)

let cond_broadcast eng h =
  with_cond eng h (fun c ->
      Cond.broadcast eng c;
      ok)

(* ---------------- threads ---------------- *)

let thr_create eng ?prio body =
  match
    let attr =
      match prio with Some p -> Attr.with_prio p Attr.default | None -> Attr.default
    in
    Pthread.create eng ~attr body
  with
  | tid -> (ok, tid)
  | exception Invalid_argument _ -> (einval, -1)

let thr_join eng tid =
  if tid = Pthread.self eng then (edeadlk, -1)
  else
    match Engine.find_thread eng tid with
    | None -> (esrch, -1)
    | Some t when t.detached -> (einval, -1)
    | Some _ -> (
        match Pthread.join eng tid with
        | Exited v -> (ok, v)
        | Canceled | Failed _ -> (ok, -1)
        | exception Types.Error (e, _) -> (Errno.to_int e, -1))

let thr_detach eng tid =
  match Engine.find_thread eng tid with
  | None -> esrch
  | Some _ ->
      Pthread.detach eng tid;
      ok

let thr_cancel eng tid =
  match Engine.find_thread eng tid with
  | None -> esrch
  | Some _ ->
      Cancel.cancel eng tid;
      ok

let thr_setprio eng tid prio =
  if prio < min_prio || prio > max_prio then einval
  else
    match Engine.find_thread eng tid with
    | None -> esrch
    | Some _ ->
        Pthread.set_priority eng tid prio;
        ok

let thr_self eng = Pthread.self eng

(* ---------------- blocking kernel calls ---------------- *)

let read eng ~latency_ns =
  try
    Signal_api.blocking_read eng ~latency_ns;
    ok
  with Types.Error (e, _) -> Errno.to_int e
