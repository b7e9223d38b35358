type kind =
  | Dispatch_in
  | Dispatch_out
  | Ready
  | Thread_create of string
  | Thread_exit
  | Mutex_lock of string
  | Mutex_block of string
  | Mutex_unlock of string
  | Cond_block of string
  | Cond_wake of string
  | Signal_sent of int
  | Signal_delivered of int
  | Prio_change of int * int
  | Cancel_request
  | Sched_decision of int list * int
  | Kernel_enter
  | Kernel_exit
  | Note of string

type event = { t_ns : int; tid : int; tname : string; kind : kind }

(* Growable ring buffer.  [record] writes into a preallocated slot — no
   per-event list cell.  Without a capacity bound the array doubles as
   needed; with one, the ring wraps and the oldest events are dropped
   (counted in [dropped]). *)
type t = {
  mutable buf : event array;
  mutable start : int;  (** index of the oldest event *)
  mutable len : int;
  mutable enabled : bool;
  mutable cap_limit : int option;
  mutable dropped : int;
}

let dummy = { t_ns = 0; tid = 0; tname = ""; kind = Note "" }
let initial_size = 256

let create () =
  {
    buf = Array.make initial_size dummy;
    start = 0;
    len = 0;
    enabled = false;
    cap_limit = None;
    dropped = 0;
  }

let enabled t = t.enabled
let set_enabled t b = t.enabled <- b

let grow t =
  let cap = Array.length t.buf in
  let target =
    match t.cap_limit with Some l -> min l (cap * 2) | None -> cap * 2
  in
  if target > cap then begin
    let buf = Array.make target dummy in
    for i = 0 to t.len - 1 do
      buf.(i) <- t.buf.((t.start + i) mod cap)
    done;
    t.buf <- buf;
    t.start <- 0
  end

let record t ~t_ns ~tid ~tname kind =
  if t.enabled then begin
    let cap = Array.length t.buf in
    if t.len = cap then grow t;
    let cap = Array.length t.buf in
    if t.len = cap then begin
      (* at the capacity bound: overwrite the oldest *)
      t.buf.(t.start) <- { t_ns; tid; tname; kind };
      t.start <- (t.start + 1) mod cap;
      t.dropped <- t.dropped + 1
    end
    else begin
      t.buf.((t.start + t.len) mod cap) <- { t_ns; tid; tname; kind };
      t.len <- t.len + 1
    end
  end

let length t = t.len
let dropped t = t.dropped

let set_capacity t capacity =
  (match capacity with
  | Some c when c <= 0 ->
      invalid_arg "Trace.set_capacity: capacity must be positive"
  | _ -> ());
  t.cap_limit <- capacity;
  match capacity with
  | Some c when t.len > c ->
      (* shrink: keep the newest [c] events *)
      let cap = Array.length t.buf in
      let buf = Array.make c dummy in
      let skip = t.len - c in
      for i = 0 to c - 1 do
        buf.(i) <- t.buf.((t.start + skip + i) mod cap)
      done;
      t.buf <- buf;
      t.start <- 0;
      t.len <- c;
      t.dropped <- t.dropped + skip
  | _ -> ()

let events t =
  let cap = Array.length t.buf in
  List.init t.len (fun i -> t.buf.((t.start + i) mod cap))

let clear t =
  t.start <- 0;
  t.len <- 0;
  t.dropped <- 0;
  Array.fill t.buf 0 (Array.length t.buf) dummy

let kind_to_string = function
  | Dispatch_in -> "dispatch-in"
  | Dispatch_out -> "dispatch-out"
  | Ready -> "ready"
  | Thread_create n -> "create " ^ n
  | Thread_exit -> "exit"
  | Mutex_lock m -> "lock " ^ m
  | Mutex_block m -> "block-on " ^ m
  | Mutex_unlock m -> "unlock " ^ m
  | Cond_block c -> "cond-block " ^ c
  | Cond_wake c -> "cond-wake " ^ c
  | Signal_sent s -> "sent " ^ Sigset.name s
  | Signal_delivered s -> "delivered " ^ Sigset.name s
  | Prio_change (a, b) -> Printf.sprintf "prio %d->%d" a b
  | Cancel_request -> "cancel-request"
  | Sched_decision (enabled, chosen) ->
      Printf.sprintf "decision [%s] -> %d"
        (String.concat "," (List.map string_of_int enabled))
        chosen
  | Kernel_enter -> "kernel-enter"
  | Kernel_exit -> "kernel-exit"
  | Note s -> s

let pp_event ppf e =
  Format.fprintf ppf "[%8.1fus] %s(%d): %s"
    (Clock.us_of_ns e.t_ns)
    e.tname e.tid (kind_to_string e.kind)

let find_all t f = List.filter f (events t)

(* Per-thread status over time, reconstructed from the event stream.
   [Ready] events are authoritative: a thread is painted ready only when
   the engine said so.  A [Dispatch_out] with no preceding [Ready] or
   block marker means the thread suspended for some reason the trace does
   not name (sleep, join, sigwait) and is painted as blocked. *)
type status = S_absent | S_ready | S_running | S_blocked_mutex | S_blocked_cond

let gantt t ~bucket_ns =
  let evs = events t in
  if evs = [] then "(empty trace)"
  else begin
    let horizon = (List.fold_left (fun acc e -> max acc e.t_ns) 0 evs) + 1 in
    let buckets = ((horizon + bucket_ns - 1) / bucket_ns) + 1 in
    let tids =
      List.sort_uniq compare (List.map (fun e -> (e.tid, e.tname)) evs)
    in
    let buf = Buffer.create 1024 in
    let row (tid, tname) =
      (* Walk events chronologically, maintaining this thread's status and
         held-mutex count; paint buckets between consecutive events. *)
      let cells = Bytes.make buckets ' ' in
      let status = ref S_absent and held = ref 0 in
      let pos = ref 0 in
      let symbol () =
        match !status with
        | S_absent -> ' '
        | S_ready -> '.'
        | S_blocked_mutex -> 'x'
        | S_blocked_cond -> 'z'
        | S_running -> if !held > 0 then '#' else '='
      in
      let paint_until t_ns =
        let stop = min buckets (t_ns / bucket_ns) in
        let c = symbol () in
        while !pos < stop do
          Bytes.set cells !pos c;
          incr pos
        done
      in
      let step e =
        if e.tid = tid then begin
          paint_until e.t_ns;
          match e.kind with
          | Ready | Cond_wake _ -> status := S_ready
          | Dispatch_in -> status := S_running
          | Dispatch_out ->
              (* Running at dispatch-out with no [Ready] and no block
                 marker: suspended on something the trace does not name
                 (sleep, join, sigwait) — blocked, not ready. *)
              if !status = S_running then status := S_absent
          | Thread_exit -> status := S_absent
          | Mutex_lock _ -> incr held
          | Mutex_unlock _ -> if !held > 0 then decr held
          | Mutex_block _ -> status := S_blocked_mutex
          | Cond_block _ -> status := S_blocked_cond
          | Thread_create _ | Signal_sent _ | Signal_delivered _
          | Prio_change _ | Cancel_request | Sched_decision _
          | Kernel_enter | Kernel_exit | Note _ ->
              ()
        end
      in
      List.iter step evs;
      paint_until horizon;
      Buffer.add_string buf (Printf.sprintf "%-8s |" tname);
      Buffer.add_string buf (Bytes.to_string cells);
      Buffer.add_string buf "|\n"
    in
    List.iter row tids;
    Buffer.add_string buf
      (Printf.sprintf
         "%-8s  (1 cell = %.1fus; '='=running '#'=running+mutex 'x'=blocked \
          on mutex 'z'=waiting on cond '.'=ready)\n"
         "" (Clock.us_of_ns bucket_ns));
    Buffer.contents buf
  end
