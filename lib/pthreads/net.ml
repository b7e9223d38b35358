open Vm
open Types

(* ------------------------------------------------------------------ *)
(* Virtual transport: deterministic in-process pipes                   *)
(* ------------------------------------------------------------------ *)

(* One direction of a connection: a byte buffer with a consumed-prefix
   offset, guarded by a library mutex/cond so blocked readers are ordinary
   cond waiters (visible to the scheduler, checker and sanitizer). *)
type vpipe = {
  p_buf : Buffer.t;
  mutable p_off : int;  (* consumed prefix of [p_buf] *)
  mutable p_eof : bool;  (* writer closed *)
  p_lock : mutex;
  p_cond : cond;  (* signaled on data arrival and on close *)
  mutable p_open_ends : int;  (* connection ends not yet closed: 2, 1, 0 *)
}

type vconn = { rx : vpipe; tx : vpipe; mutable v_closed : bool }

type vlistener = {
  vl_port : int;
  vl_queue : vconn Queue.t;  (* server-side ends awaiting accept *)
  vl_lock : mutex;
  vl_cond : cond;
  mutable vl_closed : bool;
}

(* Engine-wide loopback port registry, installed lazily in the engine's
   extension slot.  Registry reads/writes are straight-line (the engine
   only preempts at checkpoints), so the per-listener locks suffice. *)
type vstate = {
  mutable vports : (int * vlistener) list;
  mutable vnext_port : int;
}

type Types.ext += Net_state of vstate

let vstate eng =
  match eng.net_state with
  | Net_state s -> s
  | _ ->
      let s = { vports = []; vnext_port = 49152 } in
      eng.net_state <- Net_state s;
      s

let vpipe_make eng =
  {
    p_buf = Buffer.create 256;
    p_off = 0;
    p_eof = false;
    p_lock = Mutex.create eng ~name:"net.pipe" ();
    p_cond = Cond.create eng ~name:"net.pipe" ();
    p_open_ends = 2;
  }

let avail p = Buffer.length p.p_buf - p.p_off

let vpipe_read eng p buf ~pos ~len =
  Mutex.lock eng p.p_lock;
  while avail p = 0 && not p.p_eof do
    ignore (Cond.wait eng p.p_cond p.p_lock : Cond.wait_result)
  done;
  let n = min len (avail p) in
  if n > 0 then begin
    Buffer.blit p.p_buf p.p_off buf pos n;
    p.p_off <- p.p_off + n;
    if p.p_off = Buffer.length p.p_buf then begin
      Buffer.clear p.p_buf;
      p.p_off <- 0
    end
  end;
  Mutex.unlock eng p.p_lock;
  n

let vpipe_write eng p buf ~pos ~len =
  Mutex.lock eng p.p_lock;
  let n =
    if p.p_eof then 0 (* peer closed: nothing to write into *)
    else begin
      Buffer.add_subbytes p.p_buf buf pos len;
      Cond.signal eng p.p_cond;
      len
    end
  in
  Mutex.unlock eng p.p_lock;
  n

let vpipe_close eng p =
  Mutex.lock eng p.p_lock;
  if not p.p_eof then begin
    p.p_eof <- true;
    Cond.broadcast eng p.p_cond
  end;
  Mutex.unlock eng p.p_lock

(* Once both ends of a connection have closed, nobody can block on its
   pipes again: they leave the engine's census, so a long-lived server's
   census holds its open connections, not every connection it ever had. *)
let vpipe_retire eng p =
  p.p_open_ends <- p.p_open_ends - 1;
  if p.p_open_ends = 0 then begin
    Engine.census_remove_mutex eng p.p_lock;
    Engine.census_remove_cond eng p.p_cond
  end

(* ------------------------------------------------------------------ *)
(* Unix transport: readiness watch + SIGIO doorbell                    *)
(* ------------------------------------------------------------------ *)

let sigio_only = Sigset.singleton Sigset.sigio

(* Same discipline as [Signal_api.aio_read]: block SIGIO so the doorbell
   pends instead of running a handler, register the one-shot watch, then
   poll the completion state in a sigwait loop — completions are recorded
   before the doorbell posts, so the check-then-wait order is race-free. *)
let wait_ready eng (net : Backend.net_ops) handle dir =
  let old = Signal_api.set_mask eng `Block sigio_only in
  let self = Engine.current eng in
  net.Backend.net_watch handle dir ~requester:self.tid;
  while not (Unix_kernel.take_io_completion eng.vm ~requester:self.tid) do
    ignore (Signal_api.sigwait eng sigio_only : int)
  done;
  ignore (Signal_api.set_mask eng `Set old : Sigset.t)

let rec unix_retry eng net handle dir op =
  match op () with
  | Some v -> v
  | None ->
      wait_ready eng net handle dir;
      unix_retry eng net handle dir op

(* ------------------------------------------------------------------ *)
(* The backend-dispatching API                                         *)
(* ------------------------------------------------------------------ *)

type listener = L_vm of vlistener | L_unix of int
type conn = C_vm of vconn | C_unix of int

let net_ops eng =
  match eng.backend.Backend.net with
  | Some ops -> ops
  | None -> assert false (* constructors guarantee the match *)

let listen eng ?(backlog = 128) ~port () =
  Engine.checkpoint eng;
  match eng.backend.Backend.net with
  | Some net -> L_unix (net.Backend.net_listen ~port ~backlog)
  | None ->
      let s = vstate eng in
      let port =
        if port <> 0 then port
        else begin
          let p = s.vnext_port in
          s.vnext_port <- s.vnext_port + 1;
          p
        end
      in
      if List.mem_assoc port s.vports then
        raise (Error (Errno.EBUSY, "Net.listen: port in use"));
      let l =
        {
          vl_port = port;
          vl_queue = Queue.create ();
          vl_lock = Mutex.create eng ~name:"net.listener" ();
          vl_cond = Cond.create eng ~name:"net.listener" ();
          vl_closed = false;
        }
      in
      s.vports <- (port, l) :: s.vports;
      L_vm l

let port eng l =
  match l with
  | L_unix h -> (net_ops eng).Backend.net_port h
  | L_vm l -> l.vl_port

let accept eng l =
  Engine.checkpoint eng;
  match l with
  | L_unix h ->
      let net = net_ops eng in
      C_unix
        (unix_retry eng net h `Read (fun () -> net.Backend.net_accept h))
  | L_vm l ->
      Mutex.lock eng l.vl_lock;
      while Queue.is_empty l.vl_queue && not l.vl_closed do
        ignore (Cond.wait eng l.vl_cond l.vl_lock : Cond.wait_result)
      done;
      if l.vl_closed then begin
        Mutex.unlock eng l.vl_lock;
        raise (Error (Errno.EINVAL, "Net.accept: listener closed"))
      end;
      let c = Queue.pop l.vl_queue in
      Mutex.unlock eng l.vl_lock;
      C_vm c

let connect eng ~port =
  Engine.checkpoint eng;
  match eng.backend.Backend.net with
  | Some net -> C_unix (net.Backend.net_connect ~port)
  | None -> (
      let s = vstate eng in
      match List.assoc_opt port s.vports with
      | None | Some { vl_closed = true; _ } ->
          raise (Error (Errno.EINVAL, "Net.connect: connection refused"))
      | Some l ->
          let c2s = vpipe_make eng and s2c = vpipe_make eng in
          let server_end = { rx = c2s; tx = s2c; v_closed = false }
          and client_end = { rx = s2c; tx = c2s; v_closed = false } in
          Mutex.lock eng l.vl_lock;
          Queue.push server_end l.vl_queue;
          Cond.signal eng l.vl_cond;
          Mutex.unlock eng l.vl_lock;
          C_vm client_end)

let read eng c buf ~pos ~len =
  match c with
  | C_unix h ->
      let net = net_ops eng in
      unix_retry eng net h `Read (fun () ->
          net.Backend.net_read h buf ~pos ~len)
  | C_vm c -> vpipe_read eng c.rx buf ~pos ~len

let write eng c buf ~pos ~len =
  match c with
  | C_unix h ->
      let net = net_ops eng in
      unix_retry eng net h `Write (fun () ->
          net.Backend.net_write h buf ~pos ~len)
  | C_vm c -> vpipe_write eng c.tx buf ~pos ~len

let write_all eng c buf ~pos ~len =
  let sent = ref 0 in
  let closed = ref false in
  while !sent < len && not !closed do
    let n = write eng c buf ~pos:(pos + !sent) ~len:(len - !sent) in
    if n = 0 then closed := true else sent := !sent + n
  done

let close eng c =
  Engine.checkpoint eng;
  match c with
  | C_unix h -> (net_ops eng).Backend.net_close h
  | C_vm c ->
      vpipe_close eng c.tx;
      vpipe_close eng c.rx;
      if not c.v_closed then begin
        c.v_closed <- true;
        vpipe_retire eng c.tx;
        vpipe_retire eng c.rx
      end

let close_listener eng l =
  Engine.checkpoint eng;
  match l with
  | L_unix h -> (net_ops eng).Backend.net_close h
  | L_vm l ->
      let s = vstate eng in
      s.vports <- List.remove_assoc l.vl_port s.vports;
      Mutex.lock eng l.vl_lock;
      l.vl_closed <- true;
      Cond.broadcast eng l.vl_cond;
      Mutex.unlock eng l.vl_lock
