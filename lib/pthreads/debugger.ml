open Vm
open Types

type thread_info = {
  ti_tid : int;
  ti_name : string;
  ti_state : string;
  ti_prio : int;
  ti_base_prio : int;
  ti_sigmask : Sigset.t;
  ti_pending : Sigset.t;
  ti_cancel_pending : bool;
  ti_held_mutexes : string list;
  ti_cleanup_depth : int;
  ti_switches_in : int;
}

let snapshot t =
  {
    ti_tid = t.tid;
    ti_name = t.tname;
    ti_state = state_name t.state;
    ti_prio = t.prio;
    ti_base_prio = t.base_prio;
    ti_sigmask = t.sigmask;
    ti_pending =
      List.fold_left (fun acc p -> Sigset.add acc p.p_signo) Sigset.empty
        t.thr_pending;
    ti_cancel_pending = t.cancel_pending;
    ti_held_mutexes = List.map (fun m -> m.m_name) (owned_list t);
    ti_cleanup_depth = List.length t.cleanup;
    ti_switches_in = t.n_switches_in;
  }

let inspect eng tid = Option.map snapshot (Engine.find_thread eng tid)

let all_threads eng = List.map snapshot (Engine.thread_list eng)

let pp_thread ppf ti =
  Format.fprintf ppf "%3d %-12s %-24s prio %2d/%2d  switches %4d%s%s" ti.ti_tid
    ti.ti_name ti.ti_state ti.ti_prio ti.ti_base_prio ti.ti_switches_in
    (if ti.ti_held_mutexes = [] then ""
     else "  holds " ^ String.concat "," ti.ti_held_mutexes)
    (if ti.ti_cancel_pending then "  CANCEL-PENDING" else "")

let pp_process ppf eng =
  Format.fprintf ppf "@[<v>%3s %-12s %-24s@ " "TID" "NAME" "STATE";
  List.iter (fun ti -> Format.fprintf ppf "%a@ " pp_thread ti) (all_threads eng);
  Format.fprintf ppf "@]"

type switch_event = { sw_at_ns : int; sw_tid : int; sw_name : string; sw_prio : int }

let watch_switches eng f =
  Engine.subscribe eng (function
    | Switch_in t ->
        f
          {
            sw_at_ns = Unix_kernel.now eng.vm;
            sw_tid = t.tid;
            sw_name = t.tname;
            sw_prio = t.prio;
          }
    | _ -> ())

let collect_switches eng =
  (* accumulate newest-first (O(1) per event), reverse on read *)
  let rev = ref [] in
  watch_switches eng (fun e -> rev := e :: !rev);
  fun () -> List.rev !rev

(* ------------------------------------------------------------------ *)
(* Wait-for-graph deadlock detection                                    *)
(* ------------------------------------------------------------------ *)

type wait_edge = { we_thread : thread_info; we_mutex : string; we_owner : thread_info }

let wait_edges eng =
  List.filter_map
    (fun t ->
      match t.state with
      | Blocked (On_mutex m) -> (
          match owner m with
          | Some o ->
              Some { we_thread = snapshot t; we_mutex = m.m_name; we_owner = snapshot o }
          | None -> None)
      | _ -> None)
    (Engine.thread_list eng)

let find_deadlocks eng =
  (* follow thread -> owner-of-awaited-mutex edges; a revisit within the
     current walk is a cycle *)
  let next t =
    match t.state with
    | Blocked (On_mutex m) -> (
        match owner m with Some o -> Some (m, o) | None -> None)
    | _ -> None
  in
  let cycles = ref [] in
  let reported = ref [] in
  List.iter
    (fun start ->
      if not (List.memq start !reported) then begin
        let rec walk trail t =
          match next t with
          | None -> ()
          | Some (m, o) ->
              if List.exists (fun (t', _) -> t' == o) trail then begin
                (* keep the trail from the cycle entry onward *)
                let rec cut = function
                  | [] -> []
                  | ((t', _) :: _) as l when t' == o -> l
                  | _ :: rest -> cut rest
                in
                let cycle = cut (List.rev ((t, m.m_name) :: trail)) in
                List.iter (fun (t', _) -> reported := t' :: !reported) cycle;
                cycles :=
                  List.map (fun (t', mn) -> (snapshot t', mn)) cycle :: !cycles
              end
              else walk ((t, m.m_name) :: trail) o
        in
        walk [] start
      end)
    (Engine.thread_list eng);
  List.rev !cycles

let pp_deadlocks ppf cycles =
  match cycles with
  | [] -> Format.pp_print_string ppf "no deadlock cycles"
  | _ ->
      List.iteri
        (fun i cycle ->
          Format.fprintf ppf "cycle %d: " (i + 1);
          List.iter
            (fun (ti, mname) ->
              Format.fprintf ppf "%s waits %s -> " ti.ti_name mname)
            cycle;
          Format.fprintf ppf "(back to %s)@ "
            (match cycle with (ti, _) :: _ -> ti.ti_name | [] -> "?"))
        cycles
