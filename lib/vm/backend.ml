module type S = sig
  type t

  val profile : t -> Cost_model.profile
  val clock : t -> Clock.t
  val now : t -> int
  val advance : t -> int -> unit
  val insns : t -> int -> unit
  val trap : t -> name:string -> ?extra_ns:int -> (unit -> 'a) -> 'a
  val getpid : t -> int
  val sbrk : t -> int -> unit
  val sigaction : t -> Sigset.signo -> Unix_kernel.disposition -> unit
  val sigsetmask : t -> Sigset.t -> Sigset.t
  val proc_mask : t -> Sigset.t

  val post_signal :
    t -> Sigset.signo -> ?code:int -> origin:Unix_kernel.origin -> unit -> unit

  val deliver_pending : t -> bool
  val has_deliverable : t -> bool

  val arm_timer :
    t ->
    after_ns:int ->
    interval_ns:int ->
    signo:Sigset.signo ->
    origin:Unix_kernel.origin ->
    int

  val disarm_timer : t -> int -> unit
  val submit_io : t -> latency_ns:int -> requester:int -> unit
  val post_io_completion : t -> requester:int -> unit
  val take_io_completion : t -> requester:int -> bool
  val check_events : t -> unit
  val next_event_time : t -> int option
end

(* The conformance proof: the shared state machine satisfies the surface
   the engine consumes.  Compile-time only. *)
module _ : S = Unix_kernel

type kind = Virtual | Unix_loop

type net_ops = {
  net_listen : port:int -> backlog:int -> int;
  net_port : int -> int;
  net_connect : port:int -> int;
  net_accept : int -> int option;
  net_read : int -> bytes -> pos:int -> len:int -> int option;
  net_write : int -> bytes -> pos:int -> len:int -> int option;
  net_watch : int -> [ `Read | `Write ] -> requester:int -> unit;
  net_close : int -> unit;
}

type t = {
  kind : kind;
  kernel : Unix_kernel.t;
  pump : unit -> unit;
  wait : deadline_ns:int option -> bool;
  wake : unit -> unit;
  net : net_ops option;
  shutdown : unit -> unit;
}

let virtual_ ?clock profile =
  let kernel = Unix_kernel.create ?clock profile in
  let clk = Unix_kernel.clock kernel in
  {
    kind = Virtual;
    kernel;
    pump = (fun () -> ());
    wait =
      (fun ~deadline_ns ->
        match deadline_ns with
        | Some t_ns ->
            Clock.advance_to clk t_ns;
            true
        | None -> false);
    (* the virtual wait never blocks, so there is nothing to end *)
    wake = (fun () -> ());
    net = None;
    shutdown = (fun () -> ());
  }

let kind_to_string = function Virtual -> "vm" | Unix_loop -> "unix"

let kind_of_string = function
  | "vm" | "virtual" -> Some Virtual
  | "unix" | "real" -> Some Unix_loop
  | _ -> None
