(* The reentrant-libc layer: errno, rand, stdio, strtok. *)

open Tu
open Pthreads
module Errno_r = Libc_r.Errno_r
module Rand_r = Libc_r.Rand_r
module Stdio_r = Libc_r.Stdio_r
module Strtok_r = Libc_r.Strtok_r

let test_errno_per_thread () =
  ignore
    (run_main (fun proc ->
         Errno_r.set proc Errno_r.einval;
         let t =
           Pthread.create proc (fun () ->
               check int "fresh thread has clean errno" Errno_r.ok
                 (Errno_r.get proc);
               Errno_r.set proc Errno_r.eagain;
               Errno_r.get proc)
         in
         (match Pthread.join proc t with
         | Types.Exited e -> check int "thread saw its own" Errno_r.eagain e
         | _ -> Alcotest.fail "join");
         check int "main's errno preserved across switches" Errno_r.einval
           (Errno_r.get proc);
         0));
  ()

let test_errno_with_saved () =
  ignore
    (run_main (fun proc ->
         Errno_r.set proc Errno_r.ebusy;
         let v =
           Errno_r.with_saved proc (fun () ->
               Errno_r.set proc Errno_r.eintr;
               99)
         in
         check int "body result" 99 v;
         check int "errno restored" Errno_r.ebusy (Errno_r.get proc);
         0));
  ()

let test_errno_names () =
  check string "EINVAL" "EINVAL" (Errno_r.name Errno_r.einval);
  check string "ETIMEDOUT" "ETIMEDOUT" (Errno_r.name Errno_r.etimedout);
  check string "ENOMEM" "ENOMEM" (Errno_r.name Errno_r.enomem);
  check string "unknown" "E#99" (Errno_r.name 99)

let test_rand_r_reproducible () =
  let a = Rand_r.make_state 42 and b = Rand_r.make_state 42 in
  for _ = 1 to 50 do
    check int "same seed same stream" (Rand_r.rand_r a) (Rand_r.rand_r b)
  done

let test_thread_rand_independent_streams () =
  ignore
    (run_main (fun proc ->
         (* two threads with the same seed each see the full stream, even
            though they interleave *)
         let expected =
           let st = Rand_r.make_state 7 in
           List.init 10 (fun _ -> Rand_r.rand_r st)
         in
         let body () =
           Rand_r.thread_srand proc 7;
           let mine = ref [] in
           for _ = 1 to 10 do
             mine := Rand_r.thread_rand proc :: !mine;
             Pthread.yield proc
           done;
           if List.rev !mine = expected then 1 else 0
         in
         let t1 = Pthread.create proc body in
         let t2 = Pthread.create proc body in
         (match (Pthread.join proc t1, Pthread.join proc t2) with
         | Types.Exited 1, Types.Exited 1 -> ()
         | _ -> Alcotest.fail "streams were not independent");
         0));
  ()

let test_global_rand_interferes () =
  (* the hazard: with the non-reentrant generator, an interleaved thread
     perturbs the caller's stream *)
  ignore
    (run_main ~policy:(Types.Round_robin 5_000) (fun proc ->
         let expected =
           Rand_r.global_srand 7;
           List.init 20 (fun _ -> Rand_r.global_rand ())
         in
         Rand_r.global_srand 7;
         let other =
           Pthread.create_unit proc (fun () ->
               for _ = 1 to 20 do
                 ignore (Rand_r.global_rand ());
                 Pthread.busy proc ~ns:3_000
               done)
         in
         let mine = ref [] in
         for _ = 1 to 20 do
           mine := Rand_r.global_rand () :: !mine;
           Pthread.busy proc ~ns:3_000
         done;
         ignore (Pthread.join proc other);
         check bool "global stream was perturbed" true (List.rev !mine <> expected);
         0));
  ()

let test_stdio_locked_lines_atomic () =
  ignore
    (run_main ~policy:(Types.Round_robin 10_000) (fun proc ->
         let st = Stdio_r.make proc () in
         let writer name =
           Pthread.create_unit proc (fun () ->
               for i = 1 to 5 do
                 Stdio_r.puts proc st (Printf.sprintf "%s-%d\n" name i)
               done)
         in
         let a = writer "aaaa" and b = writer "bbbb" in
         ignore (Pthread.join proc a);
         ignore (Pthread.join proc b);
         Stdio_r.flush proc st;
         let lines = Stdio_r.device_lines proc st in
         check int "ten lines" 10 (List.length lines);
         List.iter
           (fun l ->
             check bool
               (Printf.sprintf "line intact: %s" l)
               true
               (String.length l = 6
               && (String.sub l 0 4 = "aaaa" || String.sub l 0 4 = "bbbb")))
           lines;
         0));
  ()

let test_stdio_unlocked_corrupts () =
  ignore
    (run_main ~policy:(Types.Round_robin 10_000) (fun proc ->
         let st = Stdio_r.make proc () in
         let writer name =
           Pthread.create_unit proc (fun () ->
               for i = 1 to 5 do
                 Stdio_r.puts_unlocked proc st (Printf.sprintf "%s-%d\n" name i)
               done)
         in
         let a = writer "aaaa" and b = writer "bbbb" in
         ignore (Pthread.join proc a);
         ignore (Pthread.join proc b);
         Stdio_r.flush proc st;
         let lines = Stdio_r.device_lines proc st in
         let intact l =
           String.length l = 6
           && (String.sub l 0 4 = "aaaa" || String.sub l 0 4 = "bbbb")
         in
         check bool "some line was corrupted" true
           (List.exists (fun l -> not (intact l)) lines);
         0));
  ()

let test_stdio_flockfile_spans_ops () =
  ignore
    (run_main ~policy:(Types.Round_robin 10_000) (fun proc ->
         let st = Stdio_r.make proc () in
         let t =
           Pthread.create_unit proc (fun () ->
               Stdio_r.with_lock proc st (fun () ->
                   Stdio_r.puts_unlocked proc st "one ";
                   Stdio_r.puts_unlocked proc st "two ";
                   Stdio_r.puts_unlocked proc st "three\n"))
         in
         Pthread.delay proc ~ns:20_000;
         Stdio_r.puts proc st "intruder\n";
         ignore (Pthread.join proc t);
         Stdio_r.flush proc st;
         let s = Stdio_r.device_contents proc st in
         (* the locked sequence is contiguous in the device *)
         let contains sub =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         check bool "triple write atomic" true (contains "one two three\n");
         0));
  ()

let test_stdio_buffer_flushes_when_full () =
  ignore
    (run_main (fun proc ->
         let st = Stdio_r.make proc ~buffer_bytes:8 () in
         Stdio_r.puts proc st "0123456789abcdef";
         (* capacity 8: at least one flush happened without a newline *)
         check bool "flushed on full buffer" true
           (String.length (Stdio_r.device_contents proc st) >= 8);
         0));
  ()

let test_stdio_putc_flushes_on_newline () =
  ignore
    (run_main (fun proc ->
         let st = Stdio_r.make proc () in
         String.iter (Stdio_r.putc proc st) "hi";
         check string "buffered" "" (Stdio_r.device_contents proc st);
         Stdio_r.putc proc st '\n';
         check string "flushed at the newline" "hi\n"
           (Stdio_r.device_contents proc st);
         0));
  ()

let test_strtok_r_basic () =
  check (Alcotest.list string) "tokens" [ "a"; "bb"; "ccc" ]
    (Strtok_r.tokens "a,bb,,ccc" ",");
  check (Alcotest.list string) "empty" [] (Strtok_r.tokens ",,," ",");
  let st = Strtok_r.start "x y" " " in
  check (Alcotest.option string) "first" (Some "x") (Strtok_r.next st);
  check (Alcotest.option string) "second" (Some "y") (Strtok_r.next st);
  check (Alcotest.option string) "done" None (Strtok_r.next st)

let test_strtok_global_interference () =
  (* two logical tokenizations through the global interface interfere *)
  ignore (Strtok_r.strtok_global ~s:"a,b,c" ",");
  (* a second "thread" starts its own tokenization mid-way *)
  ignore (Strtok_r.strtok_global ~s:"x:y" ":");
  (* the first tokenization's continuation now yields the second string's
     tokens: the classic corruption *)
  check (Alcotest.option string) "state was clobbered" (Some "y")
    (Strtok_r.strtok_global ":")

let test_strtok_r_no_interference () =
  let s1 = Strtok_r.start "a,b,c" "," in
  let s2 = Strtok_r.start "x:y" ":" in
  ignore (Strtok_r.next s1);
  ignore (Strtok_r.next s2);
  check (Alcotest.option string) "s1 continues correctly" (Some "b")
    (Strtok_r.next s1);
  check (Alcotest.option string) "s2 continues correctly" (Some "y")
    (Strtok_r.next s2)

let suite =
  [
    ( "libc_r.errno",
      [
        tc "per-thread" test_errno_per_thread;
        tc "with_saved" test_errno_with_saved;
        tc "names" test_errno_names;
      ] );
    ( "libc_r.rand",
      [
        tc "rand_r reproducible" test_rand_r_reproducible;
        tc "thread streams independent" test_thread_rand_independent_streams;
        tc "global rand interferes" test_global_rand_interferes;
      ] );
    ( "libc_r.stdio",
      [
        tc "locked lines atomic" test_stdio_locked_lines_atomic;
        tc "unlocked corrupts" test_stdio_unlocked_corrupts;
        tc "flockfile spans ops" test_stdio_flockfile_spans_ops;
        tc "flush on full" test_stdio_buffer_flushes_when_full;
        tc "putc flushes on newline" test_stdio_putc_flushes_on_newline;
      ] );
    ( "libc_r.strtok",
      [
        tc "strtok_r basic" test_strtok_r_basic;
        tc "global interferes" test_strtok_global_interference;
        tc "reentrant does not" test_strtok_r_no_interference;
      ] );
  ]
