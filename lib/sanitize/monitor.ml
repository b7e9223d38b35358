(* The concurrency monitor: consumes the engine's sanitizer event stream
   and maintains, from one execution,

   - a FastTrack-style vector-clock race detector over annotated data
     accesses, with an Eraser-style lockset fallback for pairs this
     schedule happened to order;
   - the runtime lock-order graph (held-set x acquired edges, with
     shared/exclusive modes), checked incrementally for cycles so a
     deadlock is predicted even when the observed schedule completed;
   - a held-at-exit check (a thread terminating while holding a lock).

   The monitor is a pure observer: it never blocks, dispatches, or
   mutates engine state beyond appending trace notes (Perfetto instants
   when tracing is enabled). *)

open Pthreads
open Pthreads.Types
module E = Engine

(* Publish clock at a sync key.  [pc_last] is the tid of its sole last
   publisher ([-1] once publishes from several threads accumulated):
   re-acquiring a key we ourselves published last is the overwhelmingly
   common case in a lock/unlock loop, and the join is then a no-op.
   [pc_gen] snapshots the publisher's foreign-join generation so a
   re-publish whose clock only self-ticked since degenerates to a single
   component store.  [pc_name] doubles as the key-name registry (set on
   first acquire; [""] = unnamed). *)
type pub = {
  pc : Vclock.t;
  mutable pc_last : int;
  mutable pc_gen : int;
  mutable pc_name : string;
}

type hold = { h_key : int; h_name : string; h_excl : bool; h_pub : pub }

(* Sentinel for the per-thread publish-record cache; [ts_pk = -1] means
   it's unset, so the dummy is never read.  Safe to share: sync keys are
   non-negative (kind lsl 24 lor id). *)
let dummy_pub =
  { pc = Vclock.create (); pc_last = -1; pc_gen = 0; pc_name = "" }

type tstate = {
  ts_tid : int;
  ts_clock : Vclock.t;
  ts_strong : Vclock.t;
      (** ordering through create/join and signaling edges only (cond,
          semaphore) — deliberate synchronization, as opposed to the
          accidental ordering a mutex release/acquire elsewhere imposes.
          The lockset fallback trusts this clock: a handoff along it
          restarts the Eraser phase instead of reporting, which is what
          keeps fork/join pipelines and cond message-passing clean. *)
  mutable ts_self : int;
      (** the authoritative own component of [ts_clock]; the table entry
          is materialized lazily ([materialize]) just before the clock is
          joined-from or copied wholesale, so a [tick] is a plain int
          increment.  [ts_strong]'s own component is likewise synced
          lazily ([sync_strong]) before the strong clock is published or
          read by another thread. *)
  mutable ts_gen : int;
      (** bumped whenever [ts_clock] gains foreign components (a join);
          a publish clock stamped with the same generation by the same
          thread can differ only in that thread's own component *)
  mutable ts_pk : int;
  mutable ts_pub : pub;
      (** one-entry cache of the last acquired key's publish record —
          a thread hammering its own lock skips the [clocks] lookup.
          Valid forever: publish records are created once per key and
          mutated in place. *)
  mutable ts_held : hold list;  (** innermost first *)
}

type var_state = {
  mutable v_writer : Report.access option;  (** last write, with context *)
  mutable v_writer_tid : int;
  mutable v_writer_clk : int;  (** epoch: writer's clock component *)
  v_reads : (int, int * Report.access) Hashtbl.t;  (** tid -> epoch, ctx *)
  mutable v_lockset : (int * string) list option;
      (** candidate protecting locks; [None] before the first access *)
  mutable v_owner : int;  (** first accessing tid (Eraser exclusive phase) *)
  mutable v_shared : bool;  (** a second thread has accessed *)
  mutable v_any_write : bool;
  mutable v_last : Report.access option;
  mutable v_last_clk : int;  (** epoch of [v_last] in its thread's clock *)
  mutable v_flagged : bool;  (** one report per variable *)
}

(* Lock-order edge, internal form: held-sets keep keys so the gate-lock
   filter can reason about identity, not just names. *)
type iedge = {
  ie_src : int;
  ie_dst : int;
  ie_src_excl : bool;
  ie_dst_excl : bool;
  ie_tid : int;
  ie_tname : string;
  ie_time : int;
  ie_held : (int * string) list;
}

(* Sentinel for the current-thread cache: engine tids are non-negative,
   so [ts_tid = -1] never matches and the dummy is never used. *)
let dummy_ts =
  {
    ts_tid = -1;
    ts_clock = Vclock.create ();
    ts_strong = Vclock.create ();
    ts_self = 0;
    ts_gen = 0;
    ts_pk = -1;
    ts_pub = dummy_pub;
    ts_held = [];
  }

type t = {
  eng : engine;
  threads : (int, tstate) Hashtbl.t;
  mutable cur : tstate;
      (** the current thread's state ([dummy_ts] = unset) — events arrive
          in bursts from one thread between dispatches, so this saves
          most [threads] lookups, which dominate at 10^5 threads *)
  clocks : (int, pub) Hashtbl.t;  (** publish clock per sync key *)
  strong_clocks : (int, Vclock.t) Hashtbl.t;
      (** strong-ordering publish clocks (cond and semaphore keys) *)
  vars : (int, var_state) Hashtbl.t;
  edges : (int * int * bool * bool, unit) Hashtbl.t;  (** dedupe *)
  succs : (int, iedge list ref) Hashtbl.t;  (** adjacency, src -> edges *)
  mutable races : Report.race list;  (** newest first *)
  mutable cycles : (int list * iedge list) list;
      (** (sorted node set, edges); node set dedupes *)
  mutable leaks : Report.leak list;
  mutable sub : probe -> unit;  (** the subscription [detach] removes *)
}

let note m text =
  E.trace m.eng (E.current m.eng) (Vm.Trace.Note ("sanitizer: " ^ text))

let key_name m key =
  match Hashtbl.find_opt m.clocks key with
  | Some p when p.pc_name <> "" -> p.pc_name
  | _ -> E.key_to_string key

(* Thread states are created lazily; a recycled tid gets a fresh record
   but its clock component stays monotone (seeded by [San_create]). *)
let tstate m tid =
  match Hashtbl.find_opt m.threads tid with
  | Some ts -> ts
  | None ->
      let ts =
        {
          ts_tid = tid;
          ts_clock = Vclock.create ();
          ts_strong = Vclock.create ();
          ts_self = 1;
          ts_gen = 0;
          ts_pk = -1;
          ts_pub = dummy_pub;
          ts_held = [];
        }
      in
      Vclock.set ts.ts_clock tid 1;
      Vclock.set ts.ts_strong tid 1;
      Hashtbl.replace m.threads tid ts;
      ts

let tick ts = ts.ts_self <- ts.ts_self + 1

(* Write the authoritative own component back into the clock table.
   Called only where [ts_clock] is about to be joined-from or copied. *)
let materialize ts = Vclock.set ts.ts_clock ts.ts_tid ts.ts_self

(* Same, for the strong clock: called only where [ts_strong] is about to
   be published or read by another thread. *)
let sync_strong ts = Vclock.set ts.ts_strong ts.ts_tid ts.ts_self

let self_state m =
  let tid = (E.current m.eng).tid in
  let ts = m.cur in
  if ts.ts_tid = tid then ts
  else begin
    let ts = tstate m tid in
    m.cur <- ts;
    ts
  end

let held_names ts = List.map (fun h -> h.h_name) ts.ts_held

let mk_access m ts ~write =
  let t = E.current m.eng in
  {
    Report.ac_write = write;
    ac_tid = t.tid;
    ac_tname = t.tname;
    ac_time = E.now m.eng;
    ac_held = held_names ts;
  }

(* ------------------------------------------------------------------ *)
(* Race detection                                                      *)
(* ------------------------------------------------------------------ *)

let var m key =
  match Hashtbl.find_opt m.vars key with
  | Some v -> v
  | None ->
      let v =
        {
          v_writer = None;
          v_writer_tid = -1;
          v_writer_clk = 0;
          v_reads = Hashtbl.create 4;
          v_lockset = None;
          v_owner = -1;
          v_shared = false;
          v_any_write = false;
          v_last = None;
          v_last_clk = 0;
          v_flagged = false;
        }
      in
      Hashtbl.replace m.vars key v;
      v

let flag_race m key kind first second =
  m.races <-
    {
      Report.rc_key = E.key_to_string key;
      rc_kind = kind;
      rc_first = first;
      rc_second = second;
    }
    :: m.races;
  note m
    (Printf.sprintf "race on %s (%s)" (E.key_to_string key)
       (match kind with Report.Race_vc -> "vc" | Report.Race_lockset -> "lockset"))

let inter_locks a held =
  List.filter (fun (k, _) -> List.exists (fun h -> h.h_key = k) held) a

let on_access m key ~write =
  let ts = self_state m in
  let tid = ts.ts_tid in
  let c = ts.ts_clock in
  let v = var m key in
  let ctx = mk_access m ts ~write in
  (* vector-clock phase: is the last conflicting access concurrent? *)
  if not v.v_flagged then begin
    (if v.v_writer_tid >= 0 && v.v_writer_tid <> tid
        && v.v_writer_clk > Vclock.get c v.v_writer_tid
     then
       match v.v_writer with
       | Some w ->
           v.v_flagged <- true;
           flag_race m key Report.Race_vc w ctx
       | None -> ());
    if write && not v.v_flagged then
      (* a write must also be ordered after every previous read *)
      Hashtbl.iter
        (fun rt (rc, rctx) ->
          if (not v.v_flagged) && rt <> tid && rc > Vclock.get c rt then begin
            v.v_flagged <- true;
            flag_race m key Report.Race_vc rctx ctx
          end)
        v.v_reads
  end;
  (* lockset fallback (Eraser): refine the candidate set on every access;
     once the variable is write-shared with an empty candidate set, no
     locking discipline protects it — report even if this schedule
     ordered the accesses.  Exception: when the variable changed hands
     along the strong clock (create/join/signal), the ordering holds in
     every schedule, so the discipline restarts from the new thread
     instead of reporting (the fork/join pipeline idiom). *)
  let held_sync = List.map (fun h -> (h.h_key, h.h_name)) ts.ts_held in
  (match v.v_last with
  | Some prev
    when prev.Report.ac_tid <> tid
         && v.v_last_clk <= Vclock.get ts.ts_strong prev.Report.ac_tid ->
      v.v_lockset <- Some held_sync;
      v.v_owner <- tid;
      v.v_shared <- false;
      v.v_any_write <- false
  | Some _ | None -> ());
  (match v.v_lockset with
  | None ->
      v.v_lockset <- Some held_sync;
      v.v_owner <- tid
  | Some ls -> v.v_lockset <- Some (inter_locks ls ts.ts_held));
  if tid <> v.v_owner then v.v_shared <- true;
  if write then v.v_any_write <- true;
  (if (not v.v_flagged) && v.v_shared && v.v_any_write && v.v_lockset = Some []
   then
     match v.v_last with
     | Some prev when prev.Report.ac_tid <> tid ->
         v.v_flagged <- true;
         flag_race m key Report.Race_lockset prev ctx
     | Some _ | None -> ());
  (* state update *)
  if write then begin
    v.v_writer <- Some ctx;
    v.v_writer_tid <- tid;
    v.v_writer_clk <- ts.ts_self;
    Hashtbl.reset v.v_reads
  end
  else Hashtbl.replace v.v_reads tid (ts.ts_self, ctx);
  v.v_last <- Some ctx;
  v.v_last_clk <- ts.ts_self

(* ------------------------------------------------------------------ *)
(* Lock-order graph                                                    *)
(* ------------------------------------------------------------------ *)

let succs_of m k =
  match Hashtbl.find_opt m.succs k with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.replace m.succs k r;
      r

(* Shortest edge path [from] -> ... -> [target] in the current graph
   (BFS), or [None]. *)
let find_path m ~from ~target =
  let parent : (int, iedge) Hashtbl.t = Hashtbl.create 8 in
  let q = Queue.create () in
  Queue.push from q;
  Hashtbl.replace parent from { ie_src = from; ie_dst = from; ie_src_excl = true;
                                ie_dst_excl = true; ie_tid = -1; ie_tname = "";
                                ie_time = 0; ie_held = [] };
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let n = Queue.pop q in
    if n = target then found := true
    else
      List.iter
        (fun e ->
          if not (Hashtbl.mem parent e.ie_dst) then begin
            Hashtbl.replace parent e.ie_dst e;
            Queue.push e.ie_dst q
          end)
        !(succs_of m n)
  done;
  if not !found then None
  else begin
    (* walk back from [target] to [from] *)
    let rec back n acc =
      if n = from then acc
      else
        let e = Hashtbl.find parent n in
        back e.ie_src (e :: acc)
    in
    Some (back target [])
  end

(* A cycle that cannot deadlock is filtered out:
   - every edge purely shared on both sides (readers admit each other);
   - all edges from one thread (no second thread to block against);
   - a gate lock held at every acquisition of the cycle (the common lock
     serializes the inconsistent orders). *)
let cycle_is_real edges =
  let some_excl =
    List.exists (fun e -> e.ie_src_excl || e.ie_dst_excl) edges
  in
  let tids = List.sort_uniq compare (List.map (fun e -> e.ie_tid) edges) in
  let nodes = List.map (fun e -> e.ie_src) edges in
  let gate =
    match edges with
    | [] -> false
    | first :: rest ->
        List.exists
          (fun (g, _) ->
            (not (List.mem g nodes))
            && List.for_all
                 (fun e -> List.exists (fun (k, _) -> k = g) e.ie_held)
                 rest)
          first.ie_held
  in
  some_excl && List.length tids > 1 && not gate

let add_edge m ~src ~dst edge =
  let dedupe = (src, dst, edge.ie_src_excl, edge.ie_dst_excl) in
  if src <> dst && not (Hashtbl.mem m.edges dedupe) then begin
    Hashtbl.replace m.edges dedupe ();
    let r = succs_of m src in
    r := edge :: !r;
    (* does the new edge close a cycle?  dst ->* src + (src -> dst) *)
    match find_path m ~from:dst ~target:src with
    | None -> ()
    | Some path ->
        let cyc = edge :: path in
        let nodes = List.sort_uniq compare (List.map (fun e -> e.ie_src) cyc) in
        if
          cycle_is_real cyc
          && not (List.exists (fun (ns, _) -> ns = nodes) m.cycles)
        then begin
          m.cycles <- (nodes, cyc) :: m.cycles;
          note m
            (Printf.sprintf "lock-order cycle: %s"
               (String.concat " -> "
                  (List.map (fun e -> key_name m e.ie_src) cyc)))
        end
  end

(* ------------------------------------------------------------------ *)
(* Event dispatch                                                      *)
(* ------------------------------------------------------------------ *)

let publish_clock m key =
  match Hashtbl.find_opt m.clocks key with
  | Some p -> p
  | None ->
      let p = { pc = Vclock.create (); pc_last = -1; pc_gen = 0; pc_name = "" } in
      Hashtbl.replace m.clocks key p;
      p

(* Publish [ts]'s clock into [p].  When we were the last publisher and
   our clock gained nothing foreign since, only our own component can
   have moved — one store instead of a join. *)
let publish_at ts p =
  if p.pc_last = ts.ts_tid && p.pc_gen = ts.ts_gen then
    Vclock.set p.pc ts.ts_tid ts.ts_self
  else begin
    materialize ts;
    Vclock.join p.pc ts.ts_clock;
    p.pc_gen <- ts.ts_gen
  end

let strong_pub m key =
  match Hashtbl.find_opt m.strong_clocks key with
  | Some c -> c
  | None ->
      let c = Vclock.create () in
      Hashtbl.replace m.strong_clocks key c;
      c

let on_acquire m key ~name ~excl =
  let ts = self_state m in
  (* semaphores have no ownership: a re-wait of a "held" semaphore is a
     normal pattern (ping/pong), not a self-deadlock — evict the stale
     hold instead of drawing an edge through it *)
  if E.key_kind key = 7 then
    ts.ts_held <- List.filter (fun h -> h.h_key <> key) ts.ts_held;
  (if ts.ts_held <> [] then
     let t = E.current m.eng in
     let now = E.now m.eng in
     let held_pairs = List.map (fun h -> (h.h_key, h.h_name)) ts.ts_held in
     List.iter
       (fun h ->
         add_edge m ~src:h.h_key ~dst:key
           {
             ie_src = h.h_key;
             ie_dst = key;
             ie_src_excl = h.h_excl;
             ie_dst_excl = excl;
             ie_tid = ts.ts_tid;
             ie_tname = t.tname;
             ie_time = now;
             ie_held = held_pairs;
           })
       ts.ts_held);
  let p =
    if ts.ts_pk = key then ts.ts_pub
    else begin
      let p = publish_clock m key in
      ts.ts_pk <- key;
      ts.ts_pub <- p;
      p
    end
  in
  if p.pc_name = "" then p.pc_name <- name;
  ts.ts_held <- { h_key = key; h_name = name; h_excl = excl; h_pub = p } :: ts.ts_held;
  (* happens-before: acquiring joins the clock the last releaser left —
     unless that releaser was us, in which case our clock already
     dominates it.  P-after-V is signaling, so a semaphore wait is a
     strong edge too. *)
  if p.pc_last <> ts.ts_tid then begin
    Vclock.join ts.ts_clock p.pc;
    ts.ts_gen <- ts.ts_gen + 1
  end;
  if E.key_kind key = 7 then
    match Hashtbl.find_opt m.strong_clocks key with
    | Some l -> Vclock.join ts.ts_strong l
    | None -> ()

let on_release m key =
  let ts = self_state m in
  let p, was_held =
    match ts.ts_held with
    | h :: rest when h.h_key = key ->
        (* well-nested unlock of the innermost lock: the common case *)
        ts.ts_held <- rest;
        (h.h_pub, true)
    | held ->
        let was = List.exists (fun h -> h.h_key = key) held in
        if was then ts.ts_held <- List.filter (fun h -> h.h_key <> key) held;
        (publish_clock m key, was)
  in
  (* Publish this thread's clock at the key.  Mutexes replace (the last
     release is what the next acquirer synchronizes with); semaphores
     accumulate — posts from several threads all happen-before a
     subsequent wait.  A semaphore post from a non-holder publishes too:
     that is the legal cross-thread V-after-P pattern.

     Both cases are a join in place: for a held mutex our clock dominates
     the publish clock (the acquire joined it, or skipped the join
     because we published it last), so joining IS replacing — without
     allocating a fresh clock on every unlock, which is what the
     sanitizer-on dispatch budget dies of at 10^5 threads. *)
  publish_at ts p;
  if E.key_kind key = 7 || not was_held then begin
    p.pc_last <- -1;
    sync_strong ts;
    Vclock.join (strong_pub m key) ts.ts_strong
  end
  else p.pc_last <- ts.ts_tid;
  tick ts

let on_publish m key =
  let ts = self_state m in
  let p = publish_clock m key in
  publish_at ts p;
  p.pc_last <- -1;
  sync_strong ts;
  Vclock.join (strong_pub m key) ts.ts_strong;
  tick ts

let on_merge m key =
  let ts = self_state m in
  (match Hashtbl.find_opt m.clocks key with
  | Some p ->
      Vclock.join ts.ts_clock p.pc;
      ts.ts_gen <- ts.ts_gen + 1
  | None -> ());
  match Hashtbl.find_opt m.strong_clocks key with
  | Some l -> Vclock.join ts.ts_strong l
  | None -> ()

let on_create m child =
  let parent = self_state m in
  let old_comp =
    match Hashtbl.find_opt m.threads child with
    | Some old -> old.ts_self
    | None -> 0
  in
  materialize parent;
  let clock = Vclock.copy parent.ts_clock in
  let comp = max old_comp (Vclock.get clock child) + 1 in
  Vclock.set clock child comp;
  sync_strong parent;
  let strong = Vclock.copy parent.ts_strong in
  Vclock.set strong child comp;
  Hashtbl.replace m.threads child
    {
      ts_tid = child;
      ts_clock = clock;
      ts_strong = strong;
      ts_self = comp;
      ts_gen = 0;
      ts_pk = -1;
      ts_pub = dummy_pub;
      ts_held = [];
    };
  (* the replaced record makes a cached state for a recycled tid stale *)
  if m.cur.ts_tid = child then m.cur <- dummy_ts;
  tick parent

let on_join m target =
  let ts = self_state m in
  match Hashtbl.find_opt m.threads target with
  | Some tt ->
      materialize tt;
      Vclock.join ts.ts_clock tt.ts_clock;
      ts.ts_gen <- ts.ts_gen + 1;
      sync_strong tt;
      Vclock.join ts.ts_strong tt.ts_strong
  | None -> ()

let on_exit m =
  let ts = self_state m in
  let t = E.current m.eng in
  let now = E.now m.eng in
  List.iter
    (fun h ->
      (* semaphores have no ownership; exiting "holding" one is legal *)
      if E.key_kind h.h_key <> 7 then begin
        m.leaks <-
          {
            Report.lk_key = E.key_to_string h.h_key;
            lk_name = h.h_name;
            lk_tid = t.tid;
            lk_tname = t.tname;
            lk_time = now;
          }
          :: m.leaks;
        note m (Printf.sprintf "%s still held at exit of %s" h.h_name t.tname)
      end)
    ts.ts_held;
  ts.ts_held <- []

let on_event m ev =
  match ev with
  | San_access { a_key; a_write } -> on_access m a_key ~write:a_write
  | San_acquire { q_key; q_name; q_excl } ->
      on_acquire m q_key ~name:q_name ~excl:q_excl
  | San_release { r_key } -> on_release m r_key
  | San_publish { p_key } -> on_publish m p_key
  | San_merge { g_key } -> on_merge m g_key
  | San_create { c_child } -> on_create m c_child
  | San_join { j_target } -> on_join m j_target
  | San_exit -> on_exit m
  | Decision | Switch_in _ | Touch _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let attach eng =
  let m =
    {
      eng;
      threads = Hashtbl.create 16;
      cur = dummy_ts;
      clocks = Hashtbl.create 16;
      strong_clocks = Hashtbl.create 16;
      vars = Hashtbl.create 16;
      edges = Hashtbl.create 16;
      succs = Hashtbl.create 16;
      races = [];
      cycles = [];
      leaks = [];
      sub = ignore;
    }
  in
  m.sub <- on_event m;
  E.subscribe eng m.sub;
  m

let detach m = E.unsubscribe m.eng m.sub

let edge_out m e =
  {
    Report.e_src = E.key_to_string e.ie_src;
    e_src_name = key_name m e.ie_src;
    e_src_excl = e.ie_src_excl;
    e_dst = E.key_to_string e.ie_dst;
    e_dst_name = key_name m e.ie_dst;
    e_dst_excl = e.ie_dst_excl;
    e_tid = e.ie_tid;
    e_tname = e.ie_tname;
    e_time = e.ie_time;
    e_held = List.map snd e.ie_held;
  }

let report m =
  {
    Report.races = List.rev m.races;
    cycles = List.rev_map (fun (_, cyc) -> List.map (edge_out m) cyc) m.cycles;
    leaks = List.rev m.leaks;
  }

let observe ~mk () =
  let eng = mk () in
  let m = attach eng in
  let outcome =
    try
      Pthread.start eng;
      None
    with Process_stopped r -> Some r
  in
  detach m;
  (report m, outcome)
