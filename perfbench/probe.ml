(* Instrumentation for the traced run, kept in the benchmark's own code:
   counters and spans around the two backend seams (wrapped exactly as
   [Shard.wrap_backend] wraps them) and around the benchmark's calls into
   [Net] and [Pthread.delay].  One probe per engine: probes are not shared
   between domains. *)

open Perfbench
open Pthreads

type t = {
  mutable pump_calls : int;
  mutable pump_ns : int;
  mutable wait_calls : int;
  mutable wait_ns : int;  (** host time inside [wait] *)
  mutable gap_ns : int;
      (** host time from a [wait] returning to the engine's next [pump]:
          where a shard naps after its inner wait *)
  mutable wait_exit : int;  (** 0 when no wait is outstanding *)
  wait_overshoot_ns : Samples.t;
      (** return time past [deadline_ns], for waits that slept toward a
          deadline and were not woken early *)
  net_read_ns : Samples.t;  (** a blocking [Net.read], call to return *)
  net_write_ns : Samples.t;
  delay_overshoot_ns : Samples.t;  (** [Pthread.delay] return past target *)
}

(* Events kept by a traced engine: the newest ones, enough for the layer
   statistics without holding a long run's whole history. *)
let trace_capacity = 1 lsl 19

let create () =
  {
    pump_calls = 0;
    pump_ns = 0;
    wait_calls = 0;
    wait_ns = 0;
    gap_ns = 0;
    wait_exit = 0;
    wait_overshoot_ns = Samples.create ();
    net_read_ns = Samples.create ();
    net_write_ns = Samples.create ();
    delay_overshoot_ns = Samples.create ();
  }

let wrap t (b : Vm.Backend.t) =
  let host_deadlines = b.Vm.Backend.kind = Vm.Backend.Unix_loop in
  let pump () =
    let t0 = Clock.now_ns () in
    if t.wait_exit > 0 then begin
      t.gap_ns <- t.gap_ns + (t0 - t.wait_exit);
      t.wait_exit <- 0
    end;
    b.Vm.Backend.pump ();
    t.pump_calls <- t.pump_calls + 1;
    t.pump_ns <- t.pump_ns + (Clock.now_ns () - t0)
  in
  let wait ~deadline_ns =
    (* the Unix backend's deadlines are on its own host clock *)
    let entry = if host_deadlines then Vm.Real_clock.now_ns () else 0 in
    let t0 = Clock.now_ns () in
    let r = b.Vm.Backend.wait ~deadline_ns in
    let t1 = Clock.now_ns () in
    t.wait_calls <- t.wait_calls + 1;
    t.wait_ns <- t.wait_ns + (t1 - t0);
    t.wait_exit <- t1;
    (match deadline_ns with
    | Some d when host_deadlines && d > entry ->
        let late = Vm.Real_clock.now_ns () - d in
        if late >= 0 then Samples.add t.wait_overshoot_ns late
    | _ -> ());
    r
  in
  { b with Vm.Backend.pump; wait }

let read p proc conn buf ~pos ~len =
  match p with
  | None -> Net.read proc conn buf ~pos ~len
  | Some t ->
      let t0 = Clock.now_ns () in
      let n = Net.read proc conn buf ~pos ~len in
      Samples.add t.net_read_ns (Clock.now_ns () - t0);
      n

let write_all p proc conn buf =
  match p with
  | None -> Net.write_all proc conn buf ~pos:0 ~len:(Bytes.length buf)
  | Some t ->
      let t0 = Clock.now_ns () in
      Net.write_all proc conn buf ~pos:0 ~len:(Bytes.length buf);
      Samples.add t.net_write_ns (Clock.now_ns () - t0)

(* Sleep until host time [target_ns]; records how late the sleep returned. *)
let delay_until p proc ~target_ns =
  let now = Clock.now_ns () in
  if target_ns > now then begin
    Pthread.delay proc ~ns:(target_ns - now);
    match p with
    | Some t -> Samples.add t.delay_overshoot_ns (Clock.now_ns () - target_ns)
    | None -> ()
  end

(* Fill [buf] completely; false at end of stream. *)
let read_exactly p proc conn buf =
  let len = Bytes.length buf in
  let rec fill pos =
    pos >= len
    ||
    let n = read p proc conn buf ~pos ~len:(len - pos) in
    n > 0 && fill (pos + n)
  in
  fill 0
