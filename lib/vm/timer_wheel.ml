(* Hierarchical timing wheel.  See timer_wheel.mli for the design story.

   Geometry: 13 levels of 32 slots.  32 slots per level keeps each level's
   occupancy bitmap inside one OCaml int (63 usable bits), and 13 levels x
   5 bits = 65 bits of range, so any representable expiry fits without an
   overflow bucket.  Level [l] slots span [2^(5l)] ns; level 0 slots span a
   single nanosecond, which is what makes same-tick firing order exact.

   A timer at distance [delta] from the wheel's current time lives at the
   smallest level whose 32-slot window reaches it (delta < 2^(5(l+1))), in
   the slot indexed by its absolute expiry ([expiry >> 5l] mod 32).  Each
   occupied slot holds timers from a single 32-slot "lap": any two timers
   that hash to the same slot while both are armed provably share the same
   slot-start time, so we can store that deadline explicitly per slot and
   never solve the modular which-lap puzzle that plagues cursor-only
   wheels.  For level 0 the stored deadline is the exact expiry (every
   level-0 slot holds exactly one expiry value).

   [advance] repeatedly takes the earliest-deadline occupied slot — ties
   broken toward the *highest* level so that a bucket cascading at time
   [d] merges its expiry-[d] timers into the level-0 slot before that slot
   fires, preserving global (expiry, id) order — moves the wheel's time to
   that deadline, and either fires the bucket (level 0) or re-inserts its
   timers one level down.  Cascading strictly decreases a timer's level,
   so each timer is re-bucketed at most [levels] times in its life: O(1)
   amortized.

   Allocation: arming allocates the timer record, which is also the
   caller's handle (no id table).  Links are nil-sentinel, not [option],
   so re-bucketing, firing and disarming allocate nothing; only a bucket
   holding several timers builds a list to sort them. *)

let slot_bits = 5
let slots_per_level = 1 lsl slot_bits
let slot_mask = slots_per_level - 1
let levels = 13

type 'a timer = {
  id : int;  (** arm sequence number: the (expiry, id) tie order *)
  tag : int;
  payload : 'a;
  mutable expiry : int;
  mutable interval : int;
  mutable t_next : 'a timer;
  mutable t_prev : 'a timer;
  mutable t_level : int;  (** -1 while not armed *)
  mutable t_slot : int;
}

type 'a t = {
  nil : 'a timer;  (** link sentinel; never armed *)
  mutable current : int;
  mutable next_id : int;
  slots : 'a timer array array;
  (* Slot-start deadline of each occupied slot; only meaningful where the
     level's bitmap bit is set. *)
  deadlines : int array array;
  bitmaps : int array;
  (* Earliest deadline among a level's occupied slots; [max_int] when the
     level is empty.  Kept exact: rescanned (32 reads) whenever the slot
     holding the minimum is consumed or emptied. *)
  level_min : int array;
  (* Minimum of [level_min]: [advance] returns at once while [now] is
     before it, which is what every checkpoint between expiries sees. *)
  mutable earliest : int;
  mutable n_armed : int;
  mutable peak : int;
  mutable n_cascades : int;
}

let create nil_payload =
  let rec nil =
    {
      id = 0;
      tag = 0;
      payload = nil_payload;
      expiry = max_int;
      interval = 0;
      t_next = nil;
      t_prev = nil;
      t_level = -1;
      t_slot = 0;
    }
  in
  {
    nil;
    current = 0;
    next_id = 1;
    slots = Array.init levels (fun _ -> Array.make slots_per_level nil);
    deadlines = Array.init levels (fun _ -> Array.make slots_per_level 0);
    bitmaps = Array.make levels 0;
    level_min = Array.make levels max_int;
    earliest = max_int;
    n_armed = 0;
    peak = 0;
    n_cascades = 0;
  }

let now w = w.current
let armed w = w.n_armed
let peak_armed w = w.peak
let cascades w = w.n_cascades
let id r = r.id
let tag r = r.tag
let payload r = r.payload

(* Smallest level whose window covers [delta]; the top level covers
   everything (its guard also keeps the shift below 63). *)
let rec level_from l delta =
  if l = levels - 1 || delta < 1 lsl (slot_bits * (l + 1)) then l
  else level_from (l + 1) delta

let level_for delta = level_from 0 delta

let rescan_min w l =
  let bits = w.bitmaps.(l) and dl = w.deadlines.(l) in
  let m = ref max_int in
  for s = 0 to slots_per_level - 1 do
    if bits land (1 lsl s) <> 0 && dl.(s) < !m then m := dl.(s)
  done;
  w.level_min.(l) <- !m;
  let e = ref max_int in
  for l = 0 to levels - 1 do
    if w.level_min.(l) < !e then e := w.level_min.(l)
  done;
  w.earliest <- !e

let insert w r =
  let delta =
    let d = r.expiry - w.current in
    if d < 0 then 0 else d
  in
  let l = level_for delta in
  let shift = slot_bits * l in
  let s = (r.expiry lsr shift) land slot_mask in
  let sd = if l = 0 then r.expiry else (r.expiry lsr shift) lsl shift in
  let slots = w.slots.(l) in
  let head = slots.(s) in
  r.t_level <- l;
  r.t_slot <- s;
  r.t_prev <- w.nil;
  r.t_next <- head;
  if head != w.nil then head.t_prev <- r;
  slots.(s) <- r;
  w.bitmaps.(l) <- w.bitmaps.(l) lor (1 lsl s);
  w.deadlines.(l).(s) <- sd;
  if sd < w.level_min.(l) then begin
    w.level_min.(l) <- sd;
    if sd < w.earliest then w.earliest <- sd
  end

let unlink w r =
  let l = r.t_level and s = r.t_slot in
  if r.t_prev != w.nil then r.t_prev.t_next <- r.t_next
  else w.slots.(l).(s) <- r.t_next;
  if r.t_next != w.nil then r.t_next.t_prev <- r.t_prev;
  if w.slots.(l).(s) == w.nil then begin
    w.bitmaps.(l) <- w.bitmaps.(l) land lnot (1 lsl s);
    if w.deadlines.(l).(s) = w.level_min.(l) then rescan_min w l
  end;
  r.t_level <- -1;
  r.t_next <- w.nil;
  r.t_prev <- w.nil

let arm w ~now ~after_ns ~interval_ns ~tag payload =
  let id = w.next_id in
  w.next_id <- id + 1;
  let floor = if now > w.current then now else w.current in
  let expiry =
    let e = now + after_ns in
    if e < floor then floor else e
  in
  let r =
    {
      id;
      tag;
      payload;
      expiry;
      interval = interval_ns;
      t_next = w.nil;
      t_prev = w.nil;
      t_level = -1;
      t_slot = 0;
    }
  in
  insert w r;
  w.n_armed <- w.n_armed + 1;
  if w.n_armed > w.peak then w.peak <- w.n_armed;
  r

let disarm w r =
  if r.t_level < 0 then false
  else begin
    unlink w r;
    w.n_armed <- w.n_armed - 1;
    true
  end

(* Level of the earliest occupied-slot deadline, -1 when empty.  Scanning
   levels upward with [<=] makes the highest level win ties — the
   cascade-before-fire order that keeps same-deadline batches id-sorted. *)
let min_level w =
  let best_d = ref max_int and best_l = ref (-1) in
  for l = 0 to levels - 1 do
    let m = w.level_min.(l) in
    if m < max_int && m <= !best_d then begin
      best_d := m;
      best_l := l
    end
  done;
  !best_l

let next_expiry w = w.earliest

let min_slot w l =
  let bits = w.bitmaps.(l) and dl = w.deadlines.(l) in
  let target = w.level_min.(l) in
  let found = ref (-1) in
  for s = 0 to slots_per_level - 1 do
    if !found < 0 && bits land (1 lsl s) <> 0 && dl.(s) = target then found := s
  done;
  !found

let detach_bucket w l s =
  let head = w.slots.(l).(s) in
  w.slots.(l).(s) <- w.nil;
  w.bitmaps.(l) <- w.bitmaps.(l) land lnot (1 lsl s);
  if w.deadlines.(l).(s) = w.level_min.(l) then rescan_min w l;
  head

let rec cascade w r =
  if r != w.nil then begin
    let next = r.t_next in
    w.n_cascades <- w.n_cascades + 1;
    insert w r;
    cascade w next
  end

let fire_one w ~now ~fire r =
  r.t_next <- w.nil;
  r.t_prev <- w.nil;
  r.t_level <- -1;
  if r.interval > 0 then begin
    (* BSD catch-up: a slow consumer sees one firing per check, missed
       periods collapse; same formula the list-based kernel used. *)
    (if now >= r.expiry + r.interval then
       let missed = (now - r.expiry) / r.interval in
       r.expiry <- r.expiry + ((missed + 1) * r.interval)
     else r.expiry <- r.expiry + r.interval);
    insert w r
  end
  else w.n_armed <- w.n_armed - 1;
  fire r

(* A level-0 bucket holds one expiry, so a lone timer needs no sort; a
   bucket of several is fired in id order.  Links are read before each
   timer fires: firing an interval timer re-inserts it. *)
let fire_bucket w ~now ~fire head =
  if head.t_next == w.nil then fire_one w ~now ~fire head
  else begin
    let rec collect acc r =
      if r == w.nil then acc else collect (r :: acc) r.t_next
    in
    let batch =
      List.sort
        (fun a b ->
          if a.expiry <> b.expiry then compare a.expiry b.expiry
          else compare a.id b.id)
        (collect [] head)
    in
    List.iter (fire_one w ~now ~fire) batch
  end

let advance w ~now ~fire =
  if now >= w.earliest then begin
    let l = ref (min_level w) in
    while !l >= 0 && w.level_min.(!l) <= now do
      let l' = !l in
      let d = w.level_min.(l') in
      let s = min_slot w l' in
      let head = detach_bucket w l' s in
      if d > w.current then w.current <- d;
      if l' = 0 then fire_bucket w ~now ~fire head else cascade w head;
      l := min_level w
    done
  end;
  if now > w.current then w.current <- now
