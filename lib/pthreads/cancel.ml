open Vm
open Types

let cancel eng tid =
  Engine.checkpoint eng;
  Engine.enter_kernel eng;
  Engine.send_signal eng Sigset.sigcancel ~code:0
    ~origin:(Unix_kernel.Directed tid);
  Engine.leave_kernel eng;
  (* a self-cancel in asynchronous mode takes effect here *)
  Engine.drain_fake_calls eng

let set_state eng new_state =
  let t = Engine.current eng in
  let old = t.cancel_state in
  t.cancel_state <- new_state;
  if
    new_state = Cancel_enabled && t.cancel_pending
    && t.cancel_type = Cancel_asynchronous
  then begin
    Engine.act_cancel eng t;
    Engine.drain_fake_calls eng
  end;
  old

let set_type eng new_type =
  let t = Engine.current eng in
  let old = t.cancel_type in
  t.cancel_type <- new_type;
  if
    new_type = Cancel_asynchronous && t.cancel_pending
    && t.cancel_state = Cancel_enabled
  then begin
    Engine.act_cancel eng t;
    Engine.drain_fake_calls eng
  end;
  old

let test eng = Engine.test_cancel eng

let pending eng = (Engine.current eng).cancel_pending
