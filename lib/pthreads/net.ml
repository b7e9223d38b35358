open Vm
open Types

(* Both transports block the same way: inside the kernel, a thread tests
   its condition and, while it is false, suspends on the object's I/O
   wait ([Engine.io_block]).  The kernel flag is the only lock. *)

(* ------------------------------------------------------------------ *)
(* Virtual transport: deterministic in-process pipes                   *)
(* ------------------------------------------------------------------ *)

(* One direction of a connection: a byte buffer with a consumed-prefix
   offset and the I/O wait its readers block on. *)
type vpipe = {
  p_buf : Buffer.t;
  mutable p_off : int;  (* consumed prefix of [p_buf] *)
  mutable p_eof : bool;  (* writer closed *)
  p_io : io_wait;  (* readers; woken on data arrival and on close *)
}

type vconn = { rx : vpipe; tx : vpipe }

type vlistener = {
  vl_port : int;
  vl_queue : vconn Queue.t;  (* server-side ends awaiting accept *)
  mutable vl_closed : bool;
  vl_io : io_wait;  (* accepters *)
}

(* Engine-wide state, installed lazily in the engine's extension slot:
   the loopback port registry and the one I/O wait every socket of the
   Unix transport blocks on (its wakes are by thread, not by queue). *)
type state = {
  mutable vports : (int * vlistener) list;
  mutable vnext_port : int;
  sock_io : io_wait Lazy.t;  (* made on the first socket wait *)
}

type Types.ext += Net_state of state

let state eng =
  match eng.net_state with
  | Net_state s -> s
  | _ ->
      let sock_io = lazy (Engine.io_wait_create eng ~name:"net.socket") in
      let s = { vports = []; vnext_port = 49152; sock_io } in
      eng.net_state <- Net_state s;
      s

let key w = Engine.key_io w.io_id

(* Operation prologue: a scheduling point, then the kernel, with the
   object's key in the step's footprint. *)
let enter eng w =
  Engine.checkpoint eng;
  Engine.touch eng (key w);
  Engine.enter_kernel eng

let leave eng =
  Engine.leave_kernel eng;
  Engine.drain_fake_calls eng

let vpipe_make eng =
  let p_io = Engine.io_wait_create eng ~name:"net.pipe" in
  { p_buf = Buffer.create 256; p_off = 0; p_eof = false; p_io }

let avail p = Buffer.length p.p_buf - p.p_off

let vpipe_read eng p buf ~pos ~len =
  enter eng p.p_io;
  while avail p = 0 && not p.p_eof do
    Engine.io_block eng p.p_io
  done;
  let n = min len (avail p) in
  if n > 0 then begin
    Buffer.blit p.p_buf p.p_off buf pos n;
    p.p_off <- p.p_off + n;
    if p.p_off = Buffer.length p.p_buf then begin
      Buffer.clear p.p_buf;
      p.p_off <- 0
    end
    else
      (* a short read leaves data: pass the wake on to the next reader,
         as a level-triggered socket would *)
      Engine.io_wake_one eng p.p_io
  end;
  (* the writer's (or closer's) happens-before edge *)
  Engine.san_merge eng (key p.p_io);
  leave eng;
  n

let vpipe_write eng p buf ~pos ~len =
  enter eng p.p_io;
  let n =
    if p.p_eof then 0 (* peer closed: nothing to write into *)
    else begin
      Buffer.add_subbytes p.p_buf buf pos len;
      Engine.io_wake_one eng p.p_io;
      len
    end
  in
  leave eng;
  n

(* Inside the kernel. *)
let vpipe_close eng p =
  Engine.touch eng (key p.p_io);
  if not p.p_eof then begin
    p.p_eof <- true;
    Engine.io_wake_all eng p.p_io
  end

(* ------------------------------------------------------------------ *)
(* Unix transport: one readiness slot per direction, woken directly    *)
(* ------------------------------------------------------------------ *)

(* Each op first tries its non-blocking call.  On a would-block answer
   the thread fills the handle's slot and blocks until the backend's poll
   fires it (or a handler interrupts the wait), then tries again: a
   spurious wake only costs a retry.  A cancelled wait empties its slot. *)
let unix_wait eng (net : Backend.net_ops) handle dir =
  let self = (Engine.current eng).tid in
  net.Backend.net_watch handle dir ~requester:self;
  Engine.enter_kernel eng;
  (try Engine.io_block eng (Lazy.force (state eng).sock_io)
   with e ->
     net.Backend.net_unwatch handle dir ~requester:self;
     raise e);
  leave eng

let rec unix_transfer eng net handle dir op buf ~pos ~len =
  let n = op handle buf ~pos ~len in
  if n >= 0 then n
  else begin
    unix_wait eng net handle dir;
    unix_transfer eng net handle dir op buf ~pos ~len
  end

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
      let s = state eng in
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
          vl_closed = false;
          vl_io = Engine.io_wait_create eng ~name:"net.listener";
        }
      in
      s.vports <- (port, l) :: s.vports;
      L_vm l

let port eng l =
  match l with
  | L_unix h -> (net_ops eng).Backend.net_port h
  | L_vm l -> l.vl_port

let accept eng l =
  match l with
  | L_unix h ->
      Engine.checkpoint eng;
      let net = net_ops eng in
      let c = ref (net.Backend.net_accept h) in
      while !c < 0 do
        unix_wait eng net h `Read;
        c := net.Backend.net_accept h
      done;
      if !c = 0 then
        raise (Error (Errno.EINVAL, "Net.accept: listener closed"));
      C_unix !c
  | L_vm l ->
      enter eng l.vl_io;
      while Queue.is_empty l.vl_queue && not l.vl_closed do
        Engine.io_block eng l.vl_io
      done;
      Engine.san_merge eng (key l.vl_io);
      if l.vl_closed then begin
        leave eng;
        raise (Error (Errno.EINVAL, "Net.accept: listener closed"))
      end;
      let c = Queue.pop l.vl_queue in
      leave eng;
      C_vm c

let connect eng ~port =
  Engine.checkpoint eng;
  match eng.backend.Backend.net with
  | Some net ->
      let h = net.Backend.net_socket () in
      (try
         while net.Backend.net_connect h ~port < 0 do
           unix_wait eng net h `Write
         done
       with e ->
         net.Backend.net_close h;
         raise e);
      C_unix h
  | None -> (
      match List.assoc_opt port (state eng).vports with
      | None | Some { vl_closed = true; _ } ->
          raise (Error (Errno.EINVAL, "Net.connect: connection refused"))
      | Some l ->
          let c2s = vpipe_make eng and s2c = vpipe_make eng in
          Engine.touch eng (key l.vl_io);
          Engine.enter_kernel eng;
          Queue.push { rx = c2s; tx = s2c } l.vl_queue;
          Engine.io_wake_one eng l.vl_io;
          leave eng;
          C_vm { rx = s2c; tx = c2s })

(* A range outside the buffer is refused before any wait, on either
   transport, as the host's read and write refuse it. *)
let check_range name buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg name

let read eng c buf ~pos ~len =
  check_range "Net.read" buf ~pos ~len;
  match c with
  | C_unix h ->
      let net = net_ops eng in
      unix_transfer eng net h `Read net.Backend.net_read buf ~pos ~len
  | C_vm c -> vpipe_read eng c.rx buf ~pos ~len

let write eng c buf ~pos ~len =
  check_range "Net.write" buf ~pos ~len;
  match c with
  | C_unix h ->
      let net = net_ops eng in
      unix_transfer eng net h `Write net.Backend.net_write buf ~pos ~len
  | C_vm c -> vpipe_write eng c.tx buf ~pos ~len

let write_all eng c buf ~pos ~len =
  let sent = ref 0 in
  let closed = ref false in
  while !sent < len && not !closed do
    let n = write eng c buf ~pos:(pos + !sent) ~len:(len - !sent) in
    if n = 0 then closed := true else sent := !sent + n
  done

(* On unix the close wakes the handle's blocked threads inside the kernel,
   so one that outranks the closer runs at the kernel exit, as on vm. *)
let close eng c =
  Engine.checkpoint eng;
  Engine.enter_kernel eng;
  (match c with
  | C_unix h -> (net_ops eng).Backend.net_close h
  | C_vm c ->
      vpipe_close eng c.tx;
      vpipe_close eng c.rx);
  leave eng

let close_listener eng l =
  Engine.checkpoint eng;
  match l with
  | L_unix h ->
      Engine.enter_kernel eng;
      (net_ops eng).Backend.net_close h;
      leave eng
  | L_vm l ->
      let s = state eng in
      s.vports <- List.remove_assoc l.vl_port s.vports;
      Engine.touch eng (key l.vl_io);
      Engine.enter_kernel eng;
      l.vl_closed <- true;
      Engine.io_wake_all eng l.vl_io;
      leave eng
