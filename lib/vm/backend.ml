type kind = Virtual | Unix_loop

type net_ops = {
  net_listen : port:int -> backlog:int -> int;
  net_port : int -> int;
  net_socket : unit -> int;
  net_connect : int -> port:int -> int;
  net_accept : int -> int;
  net_read : int -> bytes -> pos:int -> len:int -> int;
  net_write : int -> bytes -> pos:int -> len:int -> int;
  net_watch : int -> [ `Read | `Write ] -> requester:int -> unit;
  net_unwatch : int -> [ `Read | `Write ] -> requester:int -> unit;
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
