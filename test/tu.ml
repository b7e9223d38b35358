(** Test utilities shared by the suites. *)

open Pthreads
module Sigset = Vm.Sigset

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* Run a simulated process and return main's exit code, failing the test on
   anything but a normal exit. *)
let run_main ?profile ?policy ?perverted ?seed ?use_pool ?trace ?main_prio
    ?ceiling_mode f =
  let status, _stats =
    Pthread.run ?profile ?policy ?perverted ?seed ?use_pool ?trace ?main_prio
      ?ceiling_mode f
  in
  match status with
  | Some (Types.Exited v) -> v
  | Some st -> Alcotest.failf "main did not exit normally: %a" Types.pp_exit_status st
  | None -> Alcotest.fail "main thread was reaped"

(* Run and also return the statistics. *)
let run_stats ?policy ?perverted ?seed ?use_pool f =
  let status, stats = Pthread.run ?policy ?perverted ?seed ?use_pool f in
  (match status with
  | Some (Types.Exited _) -> ()
  | Some st -> Alcotest.failf "main did not exit normally: %a" Types.pp_exit_status st
  | None -> Alcotest.fail "main thread was reaped");
  stats

let exit_status : Types.exit_status Alcotest.testable =
  Alcotest.testable Types.pp_exit_status (fun a b ->
      match (a, b) with
      | Types.Exited x, Types.Exited y -> x = y
      | Types.Canceled, Types.Canceled -> true
      | Types.Failed _, Types.Failed _ -> true
      | _ -> false)

let tc name f = Alcotest.test_case name `Quick f

(* A committed golden file.  Dune copies [golden/] beside the test
   executable, so the path is found from there and the suite passes
   whatever the working directory. *)
let golden_path file =
  Filename.concat (Filename.concat (Filename.dirname Sys.executable_name) "golden") file

(* Run [f] on a fresh domain and fail the test if it has not returned
   within [seconds] — for code whose regression is a hang rather than a
   wrong answer.  On a timeout the stuck domain is abandoned. *)
let within ~seconds f =
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
  in
  let t0 = Vm.Real_clock.now_s () in
  let rec poll () =
    match Atomic.get result with
    | Some r ->
        Domain.join d;
        r
    | None when Vm.Real_clock.now_s () -. t0 > seconds ->
        Alcotest.failf "did not finish within %.0f s" seconds
    | None ->
        Unix.sleepf 0.002;
        poll ()
  in
  match poll () with Ok v -> v | Error e -> raise e

(* One table of pinned seeds for every randomized suite.  A failure in a
   randomized test must be reproducible from the test output alone, so the
   seed is part of the test name (Alcotest prints it on failure) and a
   deliberate reseed is a visible one-line diff here, not an invisible
   change of [Random] self-initialization. *)
let seeds =
  [
    ("fuzz", 0x5EED_F022);
    ("machine_fuzz", 0x5EED_ACE1);
    ("soak", 0x5EED_50AD);
    ("sample", 0x5EED_09C7);
    ("shrink", 0x5EED_5A1C);
    ("parallel", 0x5EED_0A11);
  ]

let seed_of key =
  match List.assoc_opt key seeds with
  | Some s -> s
  | None -> invalid_arg ("Tu.seed_of: unknown seed key " ^ key)

let qcheck ?(count = 200) ?seed_key name gen prop =
  let name, rand =
    match seed_key with
    | None -> (name, None)
    | Some key ->
        let s = seed_of key in
        ( Printf.sprintf "%s [seed %#x]" name s,
          Some (Random.State.make [| s |]) )
  in
  QCheck_alcotest.to_alcotest ?rand (QCheck2.Test.make ~name ~count gen prop)
