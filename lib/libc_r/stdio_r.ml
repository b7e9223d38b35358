module Pthread = Pthreads.Pthread
module Mutex = Pthreads.Mutex
module Types = Pthreads.Types
module Engine = Pthreads.Engine

type stream = {
  lock : Types.mutex;
  buf : Buffer.t;  (** the stdio buffer *)
  device : Buffer.t;  (** what has been written out *)
  capacity : int;
}

(* Writing a buffer to the device models a write(2). *)
let device_write proc st =
  if Buffer.length st.buf > 0 then begin
    Vm.Unix_kernel.trap proc.Types.vm Write;
    Buffer.add_buffer st.device st.buf;
    Buffer.clear st.buf
  end

let make proc ?(name = "stream") ?(buffer_bytes = 128) () =
  {
    lock = Mutex.create proc ~name:(name ^ ".lock") ();
    buf = Buffer.create buffer_bytes;
    device = Buffer.create 256;
    capacity = buffer_bytes;
  }

let putc_unlocked proc st c =
  Engine.charge proc 4;
  Buffer.add_char st.buf c;
  if c = '\n' || Buffer.length st.buf >= st.capacity then device_write proc st

let puts_unlocked proc st s =
  (* a checkpoint per character: exactly the window in which an unlocked
     stream gets corrupted by a context switch *)
  String.iter
    (fun c ->
      Pthread.checkpoint proc;
      putc_unlocked proc st c)
    s

let with_lock proc st f =
  Mutex.lock proc st.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock proc st.lock) f

let putc proc st c = with_lock proc st (fun () -> putc_unlocked proc st c)

let puts proc st s = with_lock proc st (fun () -> puts_unlocked proc st s)

let flush proc st = with_lock proc st (fun () -> device_write proc st)

let device_contents proc st =
  ignore proc;
  Buffer.contents st.device

let device_lines proc st =
  String.split_on_char '\n' (device_contents proc st)
  |> List.filter (fun l -> l <> "")
