(* The hierarchical timing wheel against a sorted-list reference model.

   The wheel replaced a linear [timer list] in the virtual kernel; what
   must be preserved is not just "timers fire" but the exact observable
   contract the deterministic scheduler and the DPOR replayer lean on:
   same-tick timers fire in (expiry, id) order, interval timers catch up
   with the BSD missed-periods-collapse formula, and [next_expiry] is a
   monotone lower bound that converges in at most [levels] refinements. *)

open Tu
module W = Vm.Timer_wheel
module K = Vm.Unix_kernel
module Sigset = Vm.Sigset
module Cost_model = Vm.Cost_model

(* Arm with tag 0; firings are observed by arm id; no deadline is None. *)
let arm w ~now ~after_ns ~interval_ns p = W.arm w ~now ~after_ns ~interval_ns ~tag:0 p
let by_id f tm = f (W.id tm)

let next_expiry w =
  let d = W.next_expiry w in
  if d = max_int then None else Some d

(* ------------------------------------------------------------------ *)
(* Reference model: a plain association list, sorted on demand          *)
(* ------------------------------------------------------------------ *)

type mtimer = { mid : int; mutable mexp : int; mint : int }

type model = {
  mutable armed_m : mtimer list;  (** unsorted *)
  mutable next_mid : int;
}

let m_create () = { armed_m = []; next_mid = 1 }

let m_arm m ~now ~after_ns ~interval_ns =
  let id = m.next_mid in
  m.next_mid <- id + 1;
  let e = now + after_ns in
  let expiry = if e < now then now else e in
  m.armed_m <- { mid = id; mexp = expiry; mint = interval_ns } :: m.armed_m;
  id

let m_disarm m id =
  let present = List.exists (fun t -> t.mid = id) m.armed_m in
  m.armed_m <- List.filter (fun t -> t.mid <> id) m.armed_m;
  present

(* Fire everything due at [now], in (expiry, id) order; interval timers
   re-arm at the first multiple of their interval strictly after [now]. *)
let m_advance m ~now =
  let due, keep = List.partition (fun t -> t.mexp <= now) m.armed_m in
  let due =
    List.sort
      (fun a b ->
        if a.mexp <> b.mexp then compare a.mexp b.mexp
        else compare a.mid b.mid)
      due
  in
  let fired = List.map (fun t -> t.mid) due in
  let rearmed =
    List.filter_map
      (fun t ->
        if t.mint > 0 then begin
          (if now >= t.mexp + t.mint then
             let missed = (now - t.mexp) / t.mint in
             t.mexp <- t.mexp + ((missed + 1) * t.mint)
           else t.mexp <- t.mexp + t.mint);
          Some t
        end
        else None)
      due
  in
  m.armed_m <- keep @ rearmed;
  fired

let m_min_expiry m =
  List.fold_left (fun acc t -> min acc t.mexp) max_int m.armed_m

(* ------------------------------------------------------------------ *)
(* Property: random op sequences agree with the model                   *)
(* ------------------------------------------------------------------ *)

type op =
  | Arm of int * int  (** after_ns, interval_ns *)
  | Disarm of int  (** an id hint, reduced mod ids handed out *)
  | Advance of int  (** dt >= 0 *)

(* Deltas span every wheel level: slot-local (level 0), mid-range, and
   far-future values that must cascade across many levels before firing. *)
let delta_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, int_range 0 100);
        (3, int_range 1_000 1_000_000);
        (2, int_range 1_000_000 1_000_000_000);
        (1, int_range 1_000_000_000 (1 lsl 45));
      ])

let op_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 4,
          let* after = delta_gen in
          let* has_interval = frequency [ (3, return false); (1, return true) ] in
          let* interval = int_range 1 2_000_000 in
          return (Arm (after, if has_interval then interval else 0)) );
        (1, map (fun h -> Disarm h) small_nat);
        (3, map (fun d -> Advance d) delta_gen);
      ])

let ops_gen = QCheck2.Gen.(list_size (int_range 10 120) op_gen)

let run_against_model ops =
  let w = W.create () in
  let handles = Hashtbl.create 16 in
  let m = m_create () in
  let check_after_advance now =
    if W.armed w <> List.length m.armed_m then
      QCheck2.Test.fail_reportf "armed mismatch: wheel %d, model %d"
        (W.armed w) (List.length m.armed_m);
    (* next_expiry: None iff empty; otherwise a bound in
       (now, min-true-expiry]. *)
    match next_expiry w with
    | None ->
        if m.armed_m <> [] then
          QCheck2.Test.fail_reportf "next_expiry None with %d armed"
            (List.length m.armed_m)
    | Some d ->
        if m.armed_m = [] then
          QCheck2.Test.fail_reportf "next_expiry %d on an empty wheel" d;
        if d <= now then
          QCheck2.Test.fail_reportf "next_expiry %d not in the future of %d" d
            now;
        let true_min = m_min_expiry m in
        if d > true_min then
          QCheck2.Test.fail_reportf
            "next_expiry %d overshoots the earliest expiry %d" d true_min
  in
  List.iter
    (fun op ->
      let now = W.now w in
      match op with
      | Arm (after_ns, interval_ns) ->
          let h = arm w ~now ~after_ns ~interval_ns () in
          let wid = W.id h in
          Hashtbl.replace handles wid h;
          let mid = m_arm m ~now ~after_ns ~interval_ns in
          if wid <> mid then
            QCheck2.Test.fail_reportf "id mismatch: wheel %d, model %d" wid mid
      | Disarm hint ->
          (* ids are dense from 1: reduce the hint onto handed-out ids so
             roughly half the disarms hit a live timer *)
          let id = 1 + (hint mod max 1 (m.next_mid - 1)) in
          let wr =
            match Hashtbl.find_opt handles id with
            | Some h -> W.disarm w h
            | None -> false
          in
          let mr = m_disarm m id in
          if wr <> mr then
            QCheck2.Test.fail_reportf "disarm %d: wheel %b, model %b" id wr mr
      | Advance dt ->
          let target = now + dt in
          let fired = ref [] in
          W.advance w ~now:target ~fire:(by_id (fun id -> fired := id :: !fired));
          let got = List.rev !fired in
          let expected = m_advance m ~now:target in
          if got <> expected then
            QCheck2.Test.fail_reportf
              "advance to %d fired [%s], model expected [%s]" target
              (String.concat ";" (List.map string_of_int got))
              (String.concat ";" (List.map string_of_int expected));
          check_after_advance target)
    ops;
  (* Drain: follow next_expiry until the wheel is empty of one-shots.
     Interval timers never drain, so cap the rounds; every round must agree
     with the model. *)
  let rounds = ref 0 in
  let continue = ref true in
  while !continue && !rounds < 200 do
    incr rounds;
    match next_expiry w with
    | None -> continue := false
    | Some d ->
        let fired = ref [] in
        W.advance w ~now:d ~fire:(by_id (fun id -> fired := id :: !fired));
        let got = List.rev !fired in
        let expected = m_advance m ~now:d in
        if got <> expected then
          QCheck2.Test.fail_reportf
            "drain advance to %d fired [%s], model expected [%s]" d
            (String.concat ";" (List.map string_of_int got))
            (String.concat ";" (List.map string_of_int expected));
        check_after_advance d
  done;
  true

let prop_model =
  QCheck2.Test.make ~count:300 ~name:"wheel agrees with sorted-list model"
    ops_gen run_against_model

(* ------------------------------------------------------------------ *)
(* Same-tick (expiry, id) firing order                                  *)
(* ------------------------------------------------------------------ *)

(* The list-based kernel prepended on arm and fired in reverse-arm order;
   the wheel must fire same-tick timers in arm (= id) order. *)
let test_same_tick_order () =
  let w = W.create "" in
  let a = W.id (arm w ~now:0 ~after_ns:1_000 ~interval_ns:0 "a") in
  let b = W.id (arm w ~now:0 ~after_ns:1_000 ~interval_ns:0 "b") in
  let c = W.id (arm w ~now:0 ~after_ns:1_000 ~interval_ns:0 "c") in
  let fired = ref [] in
  W.advance w ~now:1_000 ~fire:(by_id (fun id -> fired := id :: !fired));
  check (Alcotest.list int) "arm order, not reverse-arm order" [ a; b; c ]
    (List.rev !fired)

(* Same tick reached by different routes: [a] arms far out and cascades
   down to level 0; [b] arms directly into the level-0 slot after the
   clock has already moved.  The cascade must merge before the slot
   fires, so [a] (the smaller id) still fires first. *)
let test_same_tick_cascade_merge () =
  let w = W.create "" in
  let a = W.id (arm w ~now:0 ~after_ns:10_000 ~interval_ns:0 "a") in
  W.advance w ~now:9_990 ~fire:(fun _ -> Alcotest.fail "early fire");
  let b = W.id (arm w ~now:9_990 ~after_ns:10 ~interval_ns:0 "b") in
  let fired = ref [] in
  W.advance w ~now:10_000 ~fire:(by_id (fun id -> fired := id :: !fired));
  check (Alcotest.list int) "cascaded timer keeps id order" [ a; b ]
    (List.rev !fired);
  check bool "the far timer was re-bucketed at least once" true
    (W.cascades w > 0)

(* The same contract observed through the kernel: two one-shot SIGALRMs on
   the same tick both expire in one check_events, and BSD non-queuing
   collapses the second posting into a loss, not a deferral. *)
let test_kernel_same_tick_collapse () =
  let k = K.create Cost_model.sparc_ipx in
  let lost0 = K.signals_lost k in
  ignore (K.arm_timer k ~after_ns:50_000 ~interval_ns:0 ~signo:Sigset.sigalrm
            ~origin:(K.Timer 0) : K.timer);
  ignore (K.arm_timer k ~after_ns:50_000 ~interval_ns:0 ~signo:Sigset.sigalrm
            ~origin:(K.Timer 0) : K.timer);
  K.advance k 60_000;
  K.check_events k;
  check int "both one-shots expired" 0 (K.armed_timer_count k);
  check int "second same-tick posting was collapsed (BSD)" (lost0 + 1)
    (K.signals_lost k)

(* ------------------------------------------------------------------ *)
(* Cascade budget and next_expiry convergence                           *)
(* ------------------------------------------------------------------ *)

(* A single far-future timer: following next_expiry must converge on the
   exact expiry in at most [levels] refinement rounds (each round either
   fires or strictly tightens the bound), and the total re-bucketings
   stay within the amortized budget. *)
let test_far_future_convergence () =
  let w = W.create () in
  let expiry = 123_456_789_012_345 in
  ignore (arm w ~now:0 ~after_ns:expiry ~interval_ns:0 () : unit W.timer);
  let fired_at = ref (-1) in
  let rounds = ref 0 in
  while !fired_at < 0 do
    incr rounds;
    if !rounds > W.levels then Alcotest.fail "next_expiry did not converge";
    match next_expiry w with
    | None -> Alcotest.fail "timer lost"
    | Some d -> W.advance w ~now:d ~fire:(fun _ -> fired_at := d)
  done;
  check int "fired exactly at its expiry" expiry !fired_at;
  check bool
    (Printf.sprintf "cascades within budget (%d <= %d)" (W.cascades w)
       W.levels)
    true
    (W.cascades w <= W.levels)

(* Interval catch-up: a long advance collapses missed periods into one
   firing and re-arms strictly after the clock. *)
let test_interval_catch_up () =
  let w = W.create () in
  ignore (arm w ~now:0 ~after_ns:10_000 ~interval_ns:10_000 () : unit W.timer);
  let fires = ref 0 in
  W.advance w ~now:95_000 ~fire:(fun _ -> incr fires);
  check int "missed periods collapse into one firing" 1 !fires;
  check int "still armed" 1 (W.armed w);
  (match next_expiry w with
  | Some d ->
      (* a bucket deadline: a lower bound in (now, true expiry] *)
      check bool
        (Printf.sprintf "re-arm bound %d in (95000, 100000]" d)
        true
        (d > 95_000 && d <= 100_000)
  | None -> Alcotest.fail "interval timer lost");
  W.advance w ~now:100_000 ~fire:(fun _ -> incr fires);
  check int "fires again on schedule" 2 !fires

(* armed is a maintained counter, not a scan: it must track arm / fire /
   disarm exactly (the kernel exposes it as armed_timer_count and the
   bench derives expired-timer totals from it). *)
let test_armed_count_tracks () =
  let w = W.create () in
  let ids =
    List.init 100 (fun i ->
        arm w ~now:0 ~after_ns:(1 + (i * 37 mod 5_000)) ~interval_ns:0 ())
  in
  check int "all armed" 100 (W.armed w);
  List.iteri
    (fun i id -> if i mod 3 = 0 then ignore (W.disarm w id : bool))
    ids;
  let disarmed = (100 + 2) / 3 in
  check int "disarms tracked" (100 - disarmed) (W.armed w);
  W.advance w ~now:5_001 ~fire:ignore;
  check int "fires tracked" 0 (W.armed w);
  check int "peak saw the full population" 100 (W.peak_armed w)

(* ------------------------------------------------------------------ *)
(* Handle semantics: the timer record is the handle, no id table         *)
(* ------------------------------------------------------------------ *)

let test_disarm_fired_one_shot () =
  let w = W.create () in
  let h = arm w ~now:0 ~after_ns:100 ~interval_ns:0 () in
  W.advance w ~now:100 ~fire:ignore;
  check bool "a fired one-shot cannot be disarmed" false (W.disarm w h);
  check int "nothing armed" 0 (W.armed w)

let test_double_disarm () =
  let w = W.create () in
  let h = arm w ~now:0 ~after_ns:100 ~interval_ns:0 () in
  let other = arm w ~now:0 ~after_ns:100 ~interval_ns:0 () in
  check bool "first disarm cancels" true (W.disarm w h);
  check bool "second disarm is a no-op" false (W.disarm w h);
  check int "the other timer is untouched" 1 (W.armed w);
  let fired = ref [] in
  W.advance w ~now:100 ~fire:(by_id (fun id -> fired := id :: !fired));
  check (Alcotest.list int) "only the other timer fires" [ W.id other ] !fired

let test_disarm_interval_after_firings () =
  let w = W.create () in
  let h = arm w ~now:0 ~after_ns:1_000 ~interval_ns:1_000 () in
  let fires = ref 0 in
  List.iter
    (fun now -> W.advance w ~now ~fire:(fun _ -> incr fires))
    [ 1_000; 2_000; 3_000 ];
  check int "fired on every period" 3 !fires;
  check bool "still cancellable after firing" true (W.disarm w h);
  W.advance w ~now:10_000 ~fire:(fun _ -> incr fires);
  check int "silent once disarmed" 3 !fires;
  check int "nothing armed" 0 (W.armed w)

(* Arm order, not bucket order: timers armed at different distances (so
   into different levels) for one expiry still fire by arm sequence. *)
let test_same_expiry_arm_order () =
  let w = W.create () in
  let far = arm w ~now:0 ~after_ns:50_000 ~interval_ns:0 () in
  W.advance w ~now:40_000 ~fire:ignore;
  let mid = arm w ~now:40_000 ~after_ns:10_000 ~interval_ns:0 () in
  W.advance w ~now:49_990 ~fire:ignore;
  let near = arm w ~now:49_990 ~after_ns:10 ~interval_ns:0 () in
  let fired = ref [] in
  W.advance w ~now:50_000 ~fire:(by_id (fun id -> fired := id :: !fired));
  check (Alcotest.list int) "arm order" (List.map W.id [ far; mid; near ])
    (List.rev !fired)

let suite =
  [
    ( "vm.timer_wheel",
      [
        QCheck_alcotest.to_alcotest prop_model;
        tc "same-tick order" test_same_tick_order;
        tc "same-tick cascade merge" test_same_tick_cascade_merge;
        tc "kernel same-tick collapse" test_kernel_same_tick_collapse;
        tc "far-future convergence" test_far_future_convergence;
        tc "interval catch-up" test_interval_catch_up;
        tc "armed count" test_armed_count_tracks;
        tc "disarm a fired one-shot" test_disarm_fired_one_shot;
        tc "double disarm" test_double_disarm;
        tc "disarm an interval timer after firings" test_disarm_interval_after_firings;
        tc "same expiry fires in arm order" test_same_expiry_arm_order;
      ] );
  ]
