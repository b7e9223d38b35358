open Pthreads
module U = Vm.Unix_kernel

type t = {
  eng : Types.engine;
  actions : (int, Plan.action list) Hashtbl.t;  (* point -> actions, in order *)
  armed : (string, int Queue.t) Hashtbl.t;  (* trap name -> pending errnos *)
  on_point : (int -> unit) option;
  mutable next_point : int;
  mutable busy : bool;
}

(* Live threads in creation order: the stable universe plan indices select
   from. *)
let live_threads eng =
  List.rev
    (Engine.fold_threads eng
       (fun acc t -> if Tcb.is_live t then t :: acc else acc)
       [])

let nth_mod l n =
  match List.length l with 0 -> None | len -> Some (List.nth l (n mod len))

let cond_waiters eng =
  List.rev
    (Engine.fold_threads eng
       (fun acc t ->
         match t.Types.state with
         | Types.Blocked (Types.On_cond _) -> t :: acc
         | _ -> acc)
       [])

let apply inj act =
  let eng = inj.eng in
  match act with
  | Plan.Preempt -> Engine.inject_preempt eng
  | Plan.Spurious_wakeup n -> (
      match nth_mod (cond_waiters eng) n with
      | Some t -> Engine.inject_wakeup eng t
      | None -> ())
  | Plan.Trap_fault (name, e) ->
      let q =
        match Hashtbl.find_opt inj.armed name with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.add inj.armed name q;
            q
      in
      Queue.push (Errno.to_int e) q
  | Plan.Signal_burst { signo; count; thread } -> (
      match thread with
      | None ->
          for _ = 1 to count do
            Engine.inject_signal eng signo ~target:`Process
          done
      | Some n -> (
          match nth_mod (live_threads eng) n with
          | Some t ->
              for _ = 1 to count do
                Engine.inject_signal eng signo ~target:(`Thread t)
              done
          | None -> ()))
  | Plan.Cancel n -> (
      match nth_mod (live_threads eng) n with
      | Some t -> Engine.inject_cancel eng t
      | None -> ())
  | Plan.Clock_jump ns -> Engine.inject_clock_jump eng ~ns

let at_point inj =
  (* The guard keeps an [on_point] callback that itself reaches a fault
     point (it should not, but belt and braces) from recursing. *)
  if not inj.busy then begin
    inj.busy <- true;
    Fun.protect
      ~finally:(fun () -> inj.busy <- false)
      (fun () ->
        let k = inj.next_point in
        inj.next_point <- k + 1;
        (match inj.on_point with Some f -> f k | None -> ());
        match Hashtbl.find_opt inj.actions k with
        | Some acts -> List.iter (apply inj) acts
        | None -> ())
  end

let install ?on_point eng (plan : Plan.t) =
  let actions = Hashtbl.create 16 in
  List.iter
    (fun { Plan.at; act } ->
      let prev =
        match Hashtbl.find_opt actions at with Some l -> l | None -> []
      in
      Hashtbl.replace actions at (prev @ [ act ]))
    plan;
  (* A burst signo still on its default action would kill the process:
     give it a no-op handler, so the burst exercises delivery instead. *)
  List.iter
    (fun { Plan.act; _ } ->
      match act with
      | Plan.Signal_burst { signo; _ } -> (
          match eng.Types.actions.(signo) with
          | Types.Sig_default ->
              eng.Types.actions.(signo) <-
                Types.Sig_handler
                  { h_mask = Vm.Sigset.empty; h_fn = (fun ~signo:_ ~code:_ -> ()) }
          | Types.Sig_ignore | Types.Sig_handler _ -> ())
      | _ -> ())
    plan;
  let inj =
    { eng; actions; armed = Hashtbl.create 4; on_point; next_point = 0; busy = false }
  in
  U.set_trap_fault_hook eng.Types.vm
    (Some
       (fun name ->
         match Hashtbl.find_opt inj.armed name with
         | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
         | _ -> None));
  Engine.subscribe eng (function
    | Types.Decision -> at_point inj
    | _ -> ());
  inj

let points inj = inj.next_point

let injected inj =
  inj.eng.Types.n_faults_injected + U.trap_faults inj.eng.Types.vm
