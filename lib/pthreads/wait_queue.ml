open Types

(* Highest set bit of a non-zero [n_prios]-bit word: branchy binary search,
   constant time, no allocation. *)
let highest_bit x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF0000 <> 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF00 <> 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF0 <> 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0xC <> 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x2 <> 0 then incr n;
  !n

(* Levels are allocated on first push, one at a time: a pq is three words
   until someone actually queues on it (which keeps per-TCB [joiners]
   queues off the million-thread memory budget), and then only the
   priorities actually used get a level; the rest share [nil_level]. *)
let create () = { pq_levels = [||]; pq_bits = 0; pq_size = 0 }

let level_at q p =
  if Array.length q.pq_levels = 0 then q.pq_levels <- Array.make n_prios nil_level;
  let l = q.pq_levels.(p) in
  if l != nil_level then l
  else begin
    let l = { lv_head = nil_tcb; lv_tail = nil_tcb; lv_len = 0 } in
    q.pq_levels.(p) <- l;
    l
  end

let size q = q.pq_size
let is_empty q = q.pq_size = 0

let check_free t =
  if t.q_in != nil_pq then
    invalid_arg ("Wait_queue: " ^ t.tname ^ " is already queued")

(* The push/pop/remove bodies compare links against the sentinels with
   physical equality and store TCBs directly: the dispatcher's hot path
   (one push + one pop per context switch) performs no allocation. *)

let push_tail_at q t level =
  check_free t;
  let l = level_at q level in
  t.q_in <- q;
  t.q_level <- level;
  t.q_next <- nil_tcb;
  t.q_prev <- l.lv_tail;
  if l.lv_tail != nil_tcb then l.lv_tail.q_next <- t else l.lv_head <- t;
  l.lv_tail <- t;
  l.lv_len <- l.lv_len + 1;
  q.pq_bits <- q.pq_bits lor (1 lsl level);
  q.pq_size <- q.pq_size + 1

let push_head_at q t level =
  check_free t;
  let l = level_at q level in
  t.q_in <- q;
  t.q_level <- level;
  t.q_prev <- nil_tcb;
  t.q_next <- l.lv_head;
  if l.lv_head != nil_tcb then l.lv_head.q_prev <- t else l.lv_tail <- t;
  l.lv_head <- t;
  l.lv_len <- l.lv_len + 1;
  q.pq_bits <- q.pq_bits lor (1 lsl level);
  q.pq_size <- q.pq_size + 1

let push_tail q t = push_tail_at q t t.prio
let push_head q t = push_head_at q t t.prio

let remove q t =
  if t.q_in == q then begin
    let l = q.pq_levels.(t.q_level) in
    if t.q_prev != nil_tcb then t.q_prev.q_next <- t.q_next
    else l.lv_head <- t.q_next;
    if t.q_next != nil_tcb then t.q_next.q_prev <- t.q_prev
    else l.lv_tail <- t.q_prev;
    l.lv_len <- l.lv_len - 1;
    if l.lv_len = 0 then q.pq_bits <- q.pq_bits land lnot (1 lsl t.q_level);
    q.pq_size <- q.pq_size - 1;
    t.q_in <- nil_pq;
    t.q_prev <- nil_tcb;
    t.q_next <- nil_tcb
  end

let highest_prio q = if q.pq_bits = 0 then -1 else highest_bit q.pq_bits

let peek_highest q =
  if q.pq_bits = 0 then nil_tcb else q.pq_levels.(highest_bit q.pq_bits).lv_head

let pop_highest q =
  if q.pq_bits = 0 then None
  else begin
    let t = q.pq_levels.(highest_bit q.pq_bits).lv_head in
    remove q t;
    Some t
  end

(* One O(n) walk: levels top-down, counting until the chosen index — the
   order the old list implementation counted in, so identical seeds pick
   identical threads. *)
let rec nth_from t i = if i = 0 then t else nth_from t.q_next (i - 1)

let rec nth_at q p idx =
  let l = q.pq_levels.(p) in
  if idx < l.lv_len then nth_from l.lv_head idx else nth_at q (p - 1) (idx - l.lv_len)

let random_member q rng =
  if q.pq_size = 0 then nil_tcb else nth_at q max_prio (Vm.Rng.int rng q.pq_size)

(* Relink after [t.prio] changed from [old_prio] (already updated on the
   TCB).  Reproduces what [List.stable_sort] on a priority-sorted list did:
   a rising thread lands after its new equals (they preceded it), a falling
   thread lands before them (it preceded them). *)
let reposition q t ~old_prio =
  if t.q_in == q then begin
    remove q t;
    if t.prio > old_prio then push_tail q t else push_head q t
  end

let iter q f =
  if q.pq_size > 0 then
    for p = max_prio downto min_prio do
      let rec go t =
        if t != nil_tcb then begin
          let next = t.q_next in
          f t;
          go next
        end
      in
      go q.pq_levels.(p).lv_head
    done

let fold q f acc =
  let acc = ref acc in
  iter q (fun t -> acc := f !acc t);
  !acc

let to_list q = List.rev (fold q (fun acc t -> t :: acc) [])
