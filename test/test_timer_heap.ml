(* The deadline heap against a sorted-list reference model.

   The heap is the one timer index of the virtual kernel and the engine.
   What must hold is not just "timers fire" but the exact observable
   contract the deterministic scheduler and the DPOR replayer lean on:
   due elements come out in (expiry, id) order, removal by handle is
   exact, and [min_key] is the earliest armed expiry itself, so a sleeper
   that waits until it finds its timer due at once.  Interval timers
   catch up with the BSD missed-periods-collapse formula, a rule of the
   kernel's: the model drives it below, and the kernel tests check the
   kernel's own.

   The suite keeps the name it had while the timers lived in a
   hierarchical timing wheel, so each test keeps its name. *)

open Tu
module H = Vm.Timer_heap
module K = Vm.Unix_kernel
module Sigset = Vm.Sigset
module Cost_model = Vm.Cost_model
module Clock = Vm.Clock

(* The BSD catch-up: an interval timer due at [expiry] and checked at
   [now] re-arms at the first multiple of its period strictly after
   [now]. *)
let rearm ~expiry ~interval ~now =
  if now >= expiry + interval then
    let missed = (now - expiry) / interval in
    expiry + ((missed + 1) * interval)
  else expiry + interval

(* Arm a timer carrying its interval (0 for a one-shot), expiring at
   [now + after_ns], clamped to [now]. *)
let arm h ~now ~after_ns ~interval_ns = H.push h ~key:(now + max 0 after_ns) interval_ns

(* Pop everything due at [now], in heap order, re-arming interval timers;
   [fire] sees each element's id. *)
let advance h ~now ~fire =
  while H.min_key h <= now do
    let e = H.pop h in
    let interval = H.value e in
    if interval > 0 then
      H.reinsert h e ~key:(rearm ~expiry:(H.key e) ~interval ~now);
    fire (H.id e)
  done

let next_expiry h =
  let d = H.min_key h in
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
          t.mexp <- rearm ~expiry:t.mexp ~interval:t.mint ~now;
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

(* Deltas from a few ns to far-future values, so expiries near and far
   share the heap. *)
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
  let h = H.create () in
  let handles = Hashtbl.create 16 in
  let m = m_create () in
  let now = ref 0 in
  let check_after_advance () =
    if H.length h <> List.length m.armed_m then
      QCheck2.Test.fail_reportf "armed mismatch: heap %d, model %d"
        (H.length h) (List.length m.armed_m);
    (* next_expiry: None iff empty; otherwise exactly the earliest
       expiry, which is in the future of the last advance *)
    match next_expiry h with
    | None ->
        if m.armed_m <> [] then
          QCheck2.Test.fail_reportf "next_expiry None with %d armed"
            (List.length m.armed_m)
    | Some d ->
        if d <= !now then
          QCheck2.Test.fail_reportf "next_expiry %d not in the future of %d" d
            !now;
        let true_min = m_min_expiry m in
        if d <> true_min then
          QCheck2.Test.fail_reportf
            "next_expiry %d is not the earliest expiry %d" d true_min
  in
  let step target =
    let fired = ref [] in
    advance h ~now:target ~fire:(fun id -> fired := id :: !fired);
    now := target;
    let got = List.rev !fired in
    let expected = m_advance m ~now:target in
    if got <> expected then
      QCheck2.Test.fail_reportf "advance to %d fired [%s], model expected [%s]"
        target
        (String.concat ";" (List.map string_of_int got))
        (String.concat ";" (List.map string_of_int expected));
    check_after_advance ()
  in
  List.iter
    (function
      | Arm (after_ns, interval_ns) ->
          let e = arm h ~now:!now ~after_ns ~interval_ns in
          Hashtbl.replace handles (H.id e) e;
          let mid = m_arm m ~now:!now ~after_ns ~interval_ns in
          if H.id e <> mid then
            QCheck2.Test.fail_reportf "id mismatch: heap %d, model %d" (H.id e)
              mid
      | Disarm hint ->
          (* ids are dense from 1: reduce the hint onto handed-out ids so
             roughly half the disarms hit a live timer *)
          let id = 1 + (hint mod max 1 (m.next_mid - 1)) in
          let hr =
            match Hashtbl.find_opt handles id with
            | Some e -> H.remove h e
            | None -> false
          in
          let mr = m_disarm m id in
          if hr <> mr then
            QCheck2.Test.fail_reportf "disarm %d: heap %b, model %b" id hr mr
      | Advance dt -> step (!now + dt))
    ops;
  (* Drain: follow next_expiry until the heap is empty of one-shots; each
     step must fire something, for the expiry is exact.  Interval timers
     never drain, so cap the rounds. *)
  let rounds = ref 0 in
  let continue = ref true in
  while !continue && !rounds < 200 do
    incr rounds;
    match next_expiry h with
    | None -> continue := false
    | Some d ->
        let before = m_min_expiry m in
        step d;
        if before <> d then
          QCheck2.Test.fail_reportf "drain to %d fired nothing (model: %d)" d
            before
  done;
  true

let prop_model =
  QCheck2.Test.make ~count:300 ~name:"wheel agrees with sorted-list model"
    ops_gen run_against_model

(* ------------------------------------------------------------------ *)
(* Same-tick (expiry, id) firing order                                  *)
(* ------------------------------------------------------------------ *)

(* The list-based kernel prepended on arm and fired in reverse-arm order;
   same-tick timers must fire in arm (= id) order. *)
let test_same_tick_order () =
  let h = H.create () in
  let a = H.id (arm h ~now:0 ~after_ns:1_000 ~interval_ns:0) in
  let b = H.id (arm h ~now:0 ~after_ns:1_000 ~interval_ns:0) in
  let c = H.id (arm h ~now:0 ~after_ns:1_000 ~interval_ns:0) in
  let fired = ref [] in
  advance h ~now:1_000 ~fire:(fun id -> fired := id :: !fired);
  check (Alcotest.list int) "arm order, not reverse-arm order" [ a; b; c ]
    (List.rev !fired)

(* Same tick reached by different routes: [a] arms far out and waits
   through an advance; [b] arms for the same tick after the clock has
   moved.  [a] (the smaller id) still fires first. *)
let test_same_tick_cascade_merge () =
  let h = H.create () in
  let a = H.id (arm h ~now:0 ~after_ns:10_000 ~interval_ns:0) in
  advance h ~now:9_990 ~fire:(fun _ -> Alcotest.fail "early fire");
  let b = H.id (arm h ~now:9_990 ~after_ns:10 ~interval_ns:0) in
  let fired = ref [] in
  advance h ~now:10_000 ~fire:(fun id -> fired := id :: !fired);
  check (Alcotest.list int) "the earlier-armed timer keeps id order" [ a; b ]
    (List.rev !fired)

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
(* Exact expiries and the kernel's interval rule                        *)
(* ------------------------------------------------------------------ *)

let arm_alarm k ~after_ns ~interval_ns =
  K.arm_timer k ~after_ns ~interval_ns ~signo:Sigset.sigalrm ~origin:(K.Timer 0)

(* A single far-future timer fires in one advance: the kernel's next
   event is its exact expiry, so a clock moved there finds it due. *)
let test_far_future_convergence () =
  let k = K.create Cost_model.free in
  let expiry = 123_456_789_012_345 in
  ignore (arm_alarm k ~after_ns:expiry ~interval_ns:0 : K.timer);
  check int "next event is the exact expiry" expiry (K.next_event_time k);
  Clock.advance_to (K.clock k) (K.next_event_time k);
  K.check_events k;
  check int "fired in one advance" 1 (K.signals_posted k);
  check int "nothing left armed" 0 (K.armed_timer_count k);
  check int "no next event" max_int (K.next_event_time k)

(* Interval catch-up: a long advance collapses missed periods into one
   firing and re-arms at the first period strictly after the clock. *)
let test_interval_catch_up () =
  let k = K.create Cost_model.free in
  ignore (arm_alarm k ~after_ns:10_000 ~interval_ns:10_000 : K.timer);
  K.advance k 95_000;
  K.check_events k;
  check int "missed periods collapse into one firing" 1 (K.signals_posted k);
  check int "still armed" 1 (K.armed_timer_count k);
  check int "re-armed at exactly 100000" 100_000 (K.next_event_time k);
  K.advance k 5_000;
  K.check_events k;
  check int "fires again on schedule" 2 (K.signals_posted k)

(* length is a maintained counter, not a scan: it must track arm / fire /
   disarm exactly (the kernel exposes it as armed_timer_count and the
   bench derives expired-timer totals from it). *)
let test_armed_count_tracks () =
  let h = H.create () in
  let es =
    List.init 100 (fun i ->
        arm h ~now:0 ~after_ns:(1 + (i * 37 mod 5_000)) ~interval_ns:0)
  in
  check int "all armed" 100 (H.length h);
  List.iteri
    (fun i e -> if i mod 3 = 0 then ignore (H.remove h e : bool))
    es;
  let disarmed = (100 + 2) / 3 in
  check int "disarms tracked" (100 - disarmed) (H.length h);
  advance h ~now:5_001 ~fire:ignore;
  check int "fires tracked" 0 (H.length h);
  check int "peak saw the full population" 100 (H.peak_length h)

(* ------------------------------------------------------------------ *)
(* Handle semantics: the element record is the handle, no id table      *)
(* ------------------------------------------------------------------ *)

let test_disarm_fired_one_shot () =
  let h = H.create () in
  let e = arm h ~now:0 ~after_ns:100 ~interval_ns:0 in
  advance h ~now:100 ~fire:ignore;
  check bool "a fired one-shot cannot be disarmed" false (H.remove h e);
  check int "nothing armed" 0 (H.length h)

let test_double_disarm () =
  let h = H.create () in
  let e = arm h ~now:0 ~after_ns:100 ~interval_ns:0 in
  let other = arm h ~now:0 ~after_ns:100 ~interval_ns:0 in
  check bool "first disarm cancels" true (H.remove h e);
  check bool "second disarm is a no-op" false (H.remove h e);
  check int "the other timer is untouched" 1 (H.length h);
  let fired = ref [] in
  advance h ~now:100 ~fire:(fun id -> fired := id :: !fired);
  check (Alcotest.list int) "only the other timer fires" [ H.id other ] !fired

(* Through the kernel, whose rule re-arms the timer at each period: the
   handle stays valid across firings. *)
let test_disarm_interval_after_firings () =
  let k = K.create Cost_model.free in
  let tm = arm_alarm k ~after_ns:1_000 ~interval_ns:1_000 in
  List.iter
    (fun _ ->
      K.advance k 1_000;
      K.check_events k)
    [ 1; 2; 3 ];
  check int "fired on every period" 3 (K.signals_posted k);
  K.disarm_timer k tm;
  check int "nothing armed" 0 (K.armed_timer_count k);
  K.advance k 7_000;
  K.check_events k;
  check int "silent once disarmed" 3 (K.signals_posted k)

(* Arm order, not arm distance: timers armed at different distances for
   one expiry still fire by arm sequence. *)
let test_same_expiry_arm_order () =
  let h = H.create () in
  let far = arm h ~now:0 ~after_ns:50_000 ~interval_ns:0 in
  advance h ~now:40_000 ~fire:ignore;
  let mid = arm h ~now:40_000 ~after_ns:10_000 ~interval_ns:0 in
  advance h ~now:49_990 ~fire:ignore;
  let near = arm h ~now:49_990 ~after_ns:10 ~interval_ns:0 in
  let fired = ref [] in
  advance h ~now:50_000 ~fire:(fun id -> fired := id :: !fired);
  check (Alcotest.list int) "arm order" (List.map H.id [ far; mid; near ])
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
