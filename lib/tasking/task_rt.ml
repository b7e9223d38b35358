module Pthread = Pthreads.Pthread
module Mutex = Pthreads.Mutex
module Cond = Pthreads.Cond
module Engine = Pthreads.Engine
module Attr = Pthreads.Attr
module Types = Pthreads.Types

type group = {
  proc : Pthread.proc;
  g_m : Types.mutex;
  g_arrival : Types.cond;  (** a caller arrived at some entry *)
  g_done : Types.cond;  (** some rendezvous completed *)
}

let make_group proc ?(name = "tasks") () =
  {
    proc;
    g_m = Mutex.create proc ~name:(name ^ ".m") ();
    g_arrival = Cond.create proc ~name:(name ^ ".arrival") ();
    g_done = Cond.create proc ~name:(name ^ ".done") ();
  }

type ('a, 'b) caller = {
  c_arg : 'a;
  mutable c_reply : 'b option;
  c_prio : int;
}

type ('a, 'b) entry = {
  e_group : group;
  e_name : string;
  mutable e_callers : ('a, 'b) caller list;  (** priority order *)
}

let entry g ?name () =
  let e_name = match name with Some n -> n | None -> "entry" in
  { e_group = g; e_name; e_callers = [] }

let spawn proc ?(prio = Types.default_prio) ?name body =
  let attr = Attr.with_prio prio Attr.default in
  let attr = match name with Some n -> Attr.with_name n attr | None -> attr in
  Pthread.create_unit proc ~attr body

let insert_caller callers c =
  let rec go = function
    | [] -> [ c ]
    | x :: rest as q -> if c.c_prio > x.c_prio then c :: q else x :: go rest
  in
  go callers

let call e arg =
  let g = e.e_group in
  let proc = g.proc in
  Mutex.lock proc g.g_m;
  let self = Engine.current proc in
  let c = { c_arg = arg; c_reply = None; c_prio = self.Types.prio } in
  e.e_callers <- insert_caller e.e_callers c;
  Cond.broadcast proc g.g_arrival;
  while c.c_reply = None do
    ignore (Cond.wait proc g.g_done g.g_m : Cond.wait_result)
  done;
  let r = match c.c_reply with Some r -> r | None -> assert false in
  Mutex.unlock proc g.g_m;
  r

(* Pop the head caller and run the body for it while it stays suspended
   (extended rendezvous).  The body runs *outside* the group monitor so it
   may itself call entries (nested rendezvous, pipelines); the caller stays
   suspended regardless, because its reply cell is still empty.  Callers of
   [serve] hold the monitor on entry and get it back on return. *)
let serve proc g e body =
  match e.e_callers with
  | [] -> assert false
  | c :: rest ->
      e.e_callers <- rest;
      Mutex.unlock proc g.g_m;
      let reply = body c.c_arg in
      Mutex.lock proc g.g_m;
      c.c_reply <- Some reply;
      Cond.broadcast proc g.g_done

let accept e body =
  let g = e.e_group in
  let proc = g.proc in
  Mutex.lock proc g.g_m;
  while e.e_callers = [] do
    ignore (Cond.wait proc g.g_arrival g.g_m : Cond.wait_result)
  done;
  serve proc g e body;
  Mutex.unlock proc g.g_m

let caller_count e = List.length e.e_callers

type alternative =
  | Alt : {
      guard : bool;
      alt_entry : ('a, 'b) entry;
      body : 'a -> 'b;
    }
      -> alternative

let when_ g (Alt a) = Alt { a with guard = a.guard && g }

let ( ==> ) e body = Alt { guard = true; alt_entry = e; body }

type select_result = Accepted of string | Timed_out | Would_block

let select g ?(else_ready = false) ?timeout_ns alts =
  let proc = g.proc in
  let open_alts = List.filter (fun (Alt a) -> a.guard) alts in
  if open_alts = [] && not else_ready && timeout_ns = None then
    invalid_arg "Task_rt.select: all alternatives closed (Program_Error)";
  Mutex.lock proc g.g_m;
  let deadline =
    Option.map (fun t -> Pthread.now proc + t) timeout_ns
  in
  let try_one () =
    List.find_map
      (fun (Alt a) ->
        if a.alt_entry.e_callers <> [] then begin
          serve proc g a.alt_entry a.body;
          Some a.alt_entry.e_name
        end
        else None)
      open_alts
  in
  let rec loop () =
    match try_one () with
    | Some name ->
        Mutex.unlock proc g.g_m;
        Accepted name
    | None ->
        if else_ready then begin
          Mutex.unlock proc g.g_m;
          Would_block
        end
        else begin
          match deadline with
          | Some d when Pthread.now proc >= d ->
              Mutex.unlock proc g.g_m;
              Timed_out
          | Some d ->
              ignore
                (Cond.wait_until proc g.g_arrival g.g_m ~deadline_ns:d
                  : Cond.wait_result);
              loop ()
          | None ->
              ignore (Cond.wait proc g.g_arrival g.g_m : Cond.wait_result);
              loop ()
        end
  in
  loop ()
