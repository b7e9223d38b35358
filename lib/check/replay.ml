type report = {
  outcome : Explore.failure_kind option;
  steps : int;
  diverged_at : int option;
}

let run ?config mk sched =
  let taken, outcome, diverged_at = Explore.force ?config ~strict:false mk sched in
  let outcome = match outcome with Explore.Failed k -> Some k | _ -> None in
  { outcome; steps = Schedule.length taken; diverged_at }

let of_file ?config mk path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  match Schedule.of_string text with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok sched -> Ok (run ?config mk sched)

let pp_report ppf r =
  Format.fprintf ppf "%s in %d steps%s"
    (match r.outcome with
    | Some k -> Explore.failure_kind_to_string k
    | None -> "completed cleanly")
    r.steps
    (match r.diverged_at with
    | None -> ""
    | Some k -> Printf.sprintf " (diverged at decision %d)" k)
