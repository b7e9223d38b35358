(* Instruction charges: the kernel scheduler picks the next process and
   updates the u-area (~200 insns); an empty user handler still executes a
   few instructions. *)
let scheduler_insns = 200
let empty_handler_insns = 20

let process_switch_cost_ns prof =
  let open Cost_model in
  prof.window_flush_ns + prof.window_underflow_ns + prof.process_switch_extra_ns
  + insns prof scheduler_insns

let signal_roundtrip_ns prof ~iterations =
  let k = Unix_kernel.create prof in
  Unix_kernel.sigaction k Sigset.sigusr1
    (Unix_kernel.Catch
       {
         mask = Sigset.empty;
         fn = (fun ~signo:_ ~code:_ ~origin:_ -> Unix_kernel.insns k empty_handler_insns);
       });
  let t0 = Unix_kernel.now k in
  for _ = 1 to iterations do
    Unix_kernel.kill k Sigset.sigusr1 ~origin:Unix_kernel.External ();
    ignore (Unix_kernel.deliver_pending k : bool)
  done;
  float_of_int (Unix_kernel.now k - t0) /. float_of_int iterations

let pingpong_iteration_ns prof ~iterations =
  let clock = Clock.create () in
  let ka = Unix_kernel.create ~clock prof in
  let kb = Unix_kernel.create ~clock prof in
  let install k =
    Unix_kernel.sigaction k Sigset.sigusr1
      (Unix_kernel.Catch
         {
           mask = Sigset.empty;
           fn = (fun ~signo:_ ~code:_ ~origin:_ -> Unix_kernel.insns k empty_handler_insns);
         })
  in
  install ka;
  install kb;
  let t0 = Clock.now clock in
  (* Each loop body is one leg: the running process signals its peer, blocks
     in sigpause, the kernel switches, and the peer takes delivery. *)
  let leg sender receiver =
    (* kill(2): the trap is charged to the sender, the signal lands on the
       receiving process. *)
    Unix_kernel.trap sender Kill;
    Unix_kernel.post_signal receiver Sigset.sigusr1 ~origin:Unix_kernel.External ();
    Unix_kernel.trap sender Sigpause;
    Clock.advance clock (process_switch_cost_ns prof);
    ignore (Unix_kernel.deliver_pending receiver : bool)
  in
  for i = 1 to iterations do
    if i mod 2 = 1 then leg ka kb else leg kb ka
  done;
  float_of_int (Clock.now clock - t0) /. float_of_int iterations

let context_switch_ns prof ~iterations =
  pingpong_iteration_ns prof ~iterations -. signal_roundtrip_ns prof ~iterations
