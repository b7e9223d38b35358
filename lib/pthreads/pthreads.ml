(* The library facade (the library's main module): everything user code
   needs, re-exported in one place, plus [run ~backend] which owns engine
   setup and backend teardown.  The kernel modules ([Engine], [Tcb],
   [Wait_queue]) are re-exported as they are: the semaphore, libc_r and
   tasking layers, the checker, fault injector and sanitizer all sit on
   the kernel by design, as the paper's language layers do. *)

(* ------------------------------------------------------------------ *)
(* The API                                                             *)
(* ------------------------------------------------------------------ *)

module Types = Types
module Errno = Errno
module Attr = Attr
module Pthread = Pthread
module Mutex = Mutex
module Cond = Cond
module Net = Net
module Signal_api = Signal_api
module Cancel = Cancel
module Cleanup = Cleanup
module Tsd = Tsd
module Jmp = Jmp
module Machine = Machine
module Shared = Shared
module Shard = Shard
module Qlock = Qlock
module Flat = Flat
module Debugger = Debugger
module Validate = Validate
module Costs = Costs

type proc = Types.engine
type backend = Vm.Backend.t

(* ------------------------------------------------------------------ *)
(* Backends                                                            *)
(* ------------------------------------------------------------------ *)

let vm_backend ?clock ?(profile = Vm.Cost_model.sparc_ipx) () =
  Vm.Backend.virtual_ ?clock profile

let unix_backend ?forward_signals () = Vm.Real_kernel.create ?forward_signals ()

let backend_of_string s =
  match Vm.Backend.kind_of_string s with
  | Some Vm.Backend.Virtual -> Some (vm_backend ())
  | Some Vm.Backend.Unix_loop -> Some (unix_backend ())
  | None -> None

(* ------------------------------------------------------------------ *)
(* Statistics (re-declared so fields are reachable without [Engine])   *)
(* ------------------------------------------------------------------ *)

type stats = Engine.stats = {
  virtual_ns : int;
  switches : int;
  kernel_traps : int;
  trap_detail : (string * int) list;
  sigsetmask_calls : int;
  signals_posted : int;
  signals_delivered_unix : int;
  signals_lost : int;
  thread_handler_runs : int;
  threads_created : int;
  heap_allocations : int;
  faults_injected : int;
  timers_armed : int;
}

let stats = Engine.stats
let pp_stats = Engine.pp_stats
let dispatch_count = Engine.dispatch_count

(* ------------------------------------------------------------------ *)
(* The entry point                                                     *)
(* ------------------------------------------------------------------ *)

let run ?backend ?backend_for ?domains ?profile ?policy ?perverted ?seed
    ?use_pool ?trace ?main_prio ?ceiling_mode f =
  match domains with
  | None | Some 1 ->
      (* the default: the deterministic single-domain engine, bit-identical
         with and without [~domains:1] *)
      Pthread.run ?backend ?profile ?policy ?perverted ?seed ?use_pool ?trace
        ?main_prio ?ceiling_mode f
  | Some n when n >= 2 ->
      (match backend with
      | Some _ ->
          invalid_arg
            "Pthreads.run: a backend cannot be shared between domains; pass \
             ~backend_for (one backend per shard) with ~domains"
      | None -> ());
      (match perverted with
      | Some _ ->
          invalid_arg
            "Pthreads.run: perverted scheduling is a determinism test mode; \
             it requires the single-domain engine"
      | None -> ());
      let o =
        Shard.run_parallel ~domains:n ?backend_for ?profile ?policy ?seed
          ?use_pool ?trace ?main_prio ?ceiling_mode f
      in
      (Some o.Shard.status, o.Shard.stats)
  | Some n ->
      invalid_arg ("Pthreads.run: domains must be >= 1, got " ^ string_of_int n)

(* ------------------------------------------------------------------ *)
(* Kernel modules                                                      *)
(* ------------------------------------------------------------------ *)

module Engine = Engine
module Tcb = Tcb
module Wait_queue = Wait_queue
