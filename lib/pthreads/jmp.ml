open Vm
open Types

type buf = { jb_id : int; mutable jb_valid : bool; jb_mask : Sigset.t }

type 'a result = Returned of 'a | Jumped of int

let catch eng f =
  let self = Engine.current eng in
  Unix_kernel.flush_windows eng.vm;
  Engine.charge eng Costs.setjmp;
  let buf =
    { jb_id = Engine.fresh_obj_id eng; jb_valid = true; jb_mask = self.sigmask }
  in
  Fun.protect
    ~finally:(fun () -> buf.jb_valid <- false)
    (fun () ->
      try Returned (f buf)
      with Longjmp_exn (id, v) when id = buf.jb_id ->
        Unix_kernel.window_underflow eng.vm;
        Engine.charge eng Costs.longjmp;
        self.sigmask <- buf.jb_mask;
        Engine.recheck_thread_pending eng self;
        Engine.recheck_proc_pending eng;
        Jumped v)

let longjmp _eng buf v =
  if not buf.jb_valid then
    invalid_arg "Jmp.longjmp: jump buffer no longer valid";
  raise (Longjmp_exn (buf.jb_id, v))
