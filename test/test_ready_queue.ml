(* The ready structure: [Wait_queue] on a raw engine's [ready], plus the
   waiter-queue order model. *)

open Tu
open Pthreads
open Pthreads.Types
module WQ = Pthreads.Wait_queue

(* Dequeue the random member the perverted random chooser would pick. *)
let pop_random q rng =
  let t = WQ.random_member q rng in
  if t == nil_tcb then None
  else begin
    WQ.remove q t;
    Some t
  end

let mk_engine () =
  Engine.make (Engine.default_config Vm.Cost_model.sparc_ipx) ~main:(fun () -> 0)

let mk_tcb tid prio =
  Pthreads.Tcb.make ~tid ~name:(Printf.sprintf "t%d" tid) ~prio ~detached:false
    ~body:(fun () -> 0)
    ~deferred:false

let drain eng =
  let rec go acc =
    match WQ.pop_highest eng.ready with
    | Some t -> go (t.tid :: acc)
    | None -> List.rev acc
  in
  go []

let test_pop_highest_order () =
  let eng = mk_engine () in
  WQ.remove eng.ready (Engine.current eng);
  (* clear main *)
  ignore (WQ.pop_highest eng.ready);
  WQ.push_tail eng.ready (mk_tcb 1 5);
  WQ.push_tail eng.ready (mk_tcb 2 20);
  WQ.push_tail eng.ready (mk_tcb 3 10);
  check (Alcotest.list int) "descending priority" [ 2; 3; 1 ] (drain eng)

let test_fifo_within_level () =
  let eng = mk_engine () in
  ignore (WQ.pop_highest eng.ready);
  WQ.push_tail eng.ready (mk_tcb 1 7);
  WQ.push_tail eng.ready (mk_tcb 2 7);
  WQ.push_tail eng.ready (mk_tcb 3 7);
  check (Alcotest.list int) "FIFO" [ 1; 2; 3 ] (drain eng)

let test_push_head () =
  let eng = mk_engine () in
  ignore (WQ.pop_highest eng.ready);
  WQ.push_tail eng.ready (mk_tcb 1 7);
  WQ.push_head eng.ready (mk_tcb 2 7);
  check (Alcotest.list int) "head first" [ 2; 1 ] (drain eng)

let test_push_tail_lowest () =
  let eng = mk_engine () in
  ignore (WQ.pop_highest eng.ready);
  let hi = mk_tcb 1 25 in
  WQ.push_tail_at eng.ready hi min_prio;
  WQ.push_tail eng.ready (mk_tcb 2 3);
  (* hi sits in the lowest queue despite its priority field *)
  check (Alcotest.list int) "positional demotion" [ 2; 1 ] (drain eng)

let test_remove () =
  let eng = mk_engine () in
  ignore (WQ.pop_highest eng.ready);
  let a = mk_tcb 1 7 and b = mk_tcb 2 7 in
  WQ.push_tail eng.ready a;
  WQ.push_tail eng.ready b;
  WQ.remove eng.ready a;
  check (Alcotest.list int) "removed" [ 2 ] (drain eng)

let test_size_iter () =
  let eng = mk_engine () in
  ignore (WQ.pop_highest eng.ready);
  WQ.push_tail eng.ready (mk_tcb 1 1);
  WQ.push_tail eng.ready (mk_tcb 2 30);
  check int "size" 2 (WQ.size eng.ready);
  let seen = ref 0 in
  WQ.iter eng.ready (fun _ -> incr seen);
  check int "iter visits all" 2 !seen

let test_pop_random_deterministic () =
  let rng1 = Vm.Rng.create 9 and rng2 = Vm.Rng.create 9 in
  let run rng =
    let eng = mk_engine () in
    ignore (WQ.pop_highest eng.ready);
    List.iter
      (fun i -> WQ.push_tail eng.ready (mk_tcb i (i mod 4)))
      [ 1; 2; 3; 4; 5 ];
    let rec go acc =
      match pop_random eng.ready rng with
      | Some t -> go (t.tid :: acc)
      | None -> List.rev acc
    in
    go []
  in
  check (Alcotest.list int) "same seed, same order" (run rng1) (run rng2)

let test_pop_random_empty () =
  let eng = mk_engine () in
  ignore (WQ.pop_highest eng.ready);
  check bool "none" true (pop_random eng.ready (Vm.Rng.create 1) = None)

let prop_pop_sorted =
  qcheck ~count:100 "pop_highest yields non-increasing priorities"
    QCheck2.Gen.(small_list (int_range 0 31))
    (fun prios ->
      let eng = mk_engine () in
      ignore (WQ.pop_highest eng.ready);
      List.iteri (fun i p -> WQ.push_tail eng.ready (mk_tcb i p)) prios;
      let rec go last =
        match WQ.pop_highest eng.ready with
        | None -> true
        | Some t -> t.prio <= last && go t.prio
      in
      go max_prio)

(* ------------------------------------------------------------------ *)
(* Model-based property tests: the bitmap/intrusive implementation vs.
   the seed's naive list representation.                               *)
(* ------------------------------------------------------------------ *)

(* Reference model: level -> tid list, FIFO within a level — exactly the
   [tcb list array] the ready queue used to be. *)
module Model = struct
  type t = int list array

  let create () = Array.make n_prios []
  let push_tail m p tid = m.(p) <- m.(p) @ [ tid ]
  let push_head m p tid = m.(p) <- tid :: m.(p)
  let mem m tid = Array.exists (List.mem tid) m
  let remove m tid =
    Array.iteri (fun i l -> m.(i) <- List.filter (( <> ) tid) l) m

  let size m = Array.fold_left (fun a l -> a + List.length l) 0 m

  let pop_highest m =
    let rec go p =
      if p < min_prio then None
      else
        match m.(p) with
        | [] -> go (p - 1)
        | tid :: rest ->
            m.(p) <- rest;
            Some tid
    in
    go max_prio

  (* The seed's pop_random: one uniform draw over all queued threads,
     counted from the highest level down. *)
  let pop_random m rng =
    let n = size m in
    if n = 0 then None
    else begin
      let idx = Vm.Rng.int rng n in
      let seen = ref 0 and found = ref None and p = ref max_prio in
      while !found = None && !p >= min_prio do
        let l = m.(!p) in
        let len = List.length l in
        if idx < !seen + len then begin
          let tid = List.nth l (idx - !seen) in
          m.(!p) <- List.filter (( <> ) tid) l;
          found := Some tid
        end;
        seen := !seen + len;
        decr p
      done;
      !found
    end
end

let pool_size = 6

(* An op is (kind, thread index, priority); pushes of an already-queued
   thread are skipped on both sides, like the kernel's invariant that a
   thread occupies at most one queue. *)
let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (triple (int_range 0 4) (int_range 0 (pool_size - 1)) (int_range 0 31)))

let run_model_trace ops ~pop =
  let eng = mk_engine () in
  ignore (WQ.pop_highest eng.ready);
  let model = Model.create () in
  let pool = Array.init pool_size (fun i -> mk_tcb (i + 1) 0) in
  let ok = ref true in
  let record_pop real_tid model_tid =
    if real_tid <> model_tid then ok := false
  in
  let opt_tid = function Some (t : tcb) -> t.tid | None -> -1 in
  let model_tid = function Some tid -> tid | None -> -1 in
  List.iter
    (fun (kind, idx, prio) ->
      let t = pool.(idx) in
      let queued = t.q_in != Pthreads.Types.nil_pq in
      if queued <> Model.mem model t.tid then ok := false;
      match kind with
      | 0 ->
          if not queued then begin
            t.prio <- prio;
            WQ.push_tail eng.ready t;
            Model.push_tail model prio t.tid
          end
      | 1 ->
          if not queued then begin
            t.prio <- prio;
            WQ.push_head eng.ready t;
            Model.push_head model prio t.tid
          end
      | 2 ->
          if not queued then begin
            t.prio <- prio;
            WQ.push_tail_at eng.ready t min_prio;
            Model.push_tail model min_prio t.tid
          end
      | 3 ->
          record_pop (opt_tid (pop eng.ready))
            (model_tid (Model.pop_highest model))
      | _ ->
          WQ.remove eng.ready t;
          Model.remove model t.tid)
    ops;
  if WQ.size eng.ready <> Model.size model then ok := false;
  (* drain both and require identical order *)
  let rec drain_both () =
    let r = opt_tid (pop eng.ready)
    and m = model_tid (Model.pop_highest model) in
    record_pop r m;
    if r <> -1 || m <> -1 then drain_both ()
  in
  drain_both ();
  !ok

let prop_model_fifo =
  qcheck ~count:300 "bitmap queue = list model (Fifo/Rr pop order)" gen_ops
    (fun ops -> run_model_trace ops ~pop:WQ.pop_highest)

let prop_model_random =
  qcheck ~count:300
    "bitmap queue = list model (Random_switch pop order, paired RNG)"
    QCheck2.Gen.(pair gen_ops (int_range 0 10_000))
    (fun (ops, seed) ->
      (* same seed on both sides: the draws must line up exactly *)
      let rng_real = Vm.Rng.create seed and rng_model = Vm.Rng.create seed in
      let eng = mk_engine () in
      ignore (WQ.pop_highest eng.ready);
      let model = Model.create () in
      let pool = Array.init pool_size (fun i -> mk_tcb (i + 1) 0) in
      let ok = ref true in
      List.iter
        (fun (kind, idx, prio) ->
          let t = pool.(idx) in
          let queued = t.q_in != Pthreads.Types.nil_pq in
          match kind with
          | 0 | 1 | 2 ->
              if not queued then begin
                t.prio <- prio;
                WQ.push_tail eng.ready t;
                Model.push_tail model prio t.tid
              end
          | 3 ->
              let r =
                match pop_random eng.ready rng_real with
                | Some t -> t.tid
                | None -> -1
              and m =
                match Model.pop_random model rng_model with
                | Some tid -> tid
                | None -> -1
              in
              if r <> m then ok := false
          | _ ->
              WQ.remove eng.ready t;
              Model.remove model t.tid)
        ops;
      let rec drain () =
        let r =
          match pop_random eng.ready rng_real with
          | Some t -> t.tid
          | None -> -1
        and m =
          match Model.pop_random model rng_model with
          | Some tid -> tid
          | None -> -1
        in
        if r <> m then ok := false;
        if r <> -1 || m <> -1 then drain ()
      in
      drain ();
      !ok)

(* Wait-queue model: the seed kept waiter lists sorted by descending
   priority (FIFO within a level) via [Tcb.insert_by_prio] and re-sorted
   with [List.stable_sort] after a priority change.  The bucketed queue
   must reproduce that order exactly, including after [reposition]. *)

let prop_wait_queue_model =
  qcheck ~count:300 "wait queue = insert_by_prio/stable_sort reference"
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (triple (int_range 0 3) (int_range 0 (pool_size - 1)) (int_range 0 31)))
    (fun ops ->
      let q = WQ.create () in
      let pool = Array.init pool_size (fun i -> mk_tcb (i + 1) 0) in
      (* reference: (tid, prio) list, head = highest priority, oldest first
         within a level *)
      let model = ref [] in
      let ref_insert tid p =
        let rec go = function
          | ((_, p') as x) :: rest when p' >= p -> x :: go rest
          | rest -> (tid, p) :: rest
        in
        model := go !model
      in
      let ref_resort () =
        model :=
          List.stable_sort (fun (_, a) (_, b) -> compare b a) !model
      in
      let ok = ref true in
      let agree () =
        let real = List.map (fun (t : tcb) -> t.tid) (WQ.to_list q) in
        let expect = List.map fst !model in
        if real <> expect then ok := false
      in
      List.iter
        (fun (kind, idx, prio) ->
          let t = pool.(idx) in
          let queued = t.q_in != Pthreads.Types.nil_pq in
          (match kind with
          | 0 ->
              if not queued then begin
                t.prio <- prio;
                WQ.push_tail q t;
                ref_insert t.tid prio
              end
          | 1 ->
              WQ.remove q t;
              model := List.filter (fun (tid, _) -> tid <> t.tid) !model
          | 2 ->
              (* priority change of a queued waiter (inheritance/ceiling) *)
              if queued && t.prio <> prio then begin
                let old_prio = t.prio in
                t.prio <- prio;
                WQ.reposition q t ~old_prio;
                model :=
                  List.map
                    (fun (tid, p) -> if tid = t.tid then (tid, prio) else (tid, p))
                    !model;
                ref_resort ()
              end
          | _ -> (
              let r =
                match WQ.pop_highest q with Some t -> t.tid | None -> -1
              and m =
                match !model with
                | (tid, _) :: rest ->
                    model := rest;
                    tid
                | [] -> -1
              in
              if r <> m then ok := false));
          agree ())
        ops;
      !ok)

let suite =
  [
    ( "ready_queue",
      [
        tc "pop highest" test_pop_highest_order;
        tc "FIFO within level" test_fifo_within_level;
        tc "push head" test_push_head;
        tc "push tail lowest" test_push_tail_lowest;
        tc "remove" test_remove;
        tc "size/iter" test_size_iter;
        tc "pop random deterministic" test_pop_random_deterministic;
        tc "pop random empty" test_pop_random_empty;
        prop_pop_sorted;
        prop_model_fifo;
        prop_model_random;
        prop_wait_queue_model;
      ] );
  ]
