open Types

type 'a key = {
  k_index : int;
  inj : 'a -> univ;
  proj : univ -> 'a option;
  k_alive : bool ref;
}

let create_key (type a) eng ?destructor () =
  if eng.tsd_next >= max_tsd_keys then failwith "Tsd.create_key: out of keys";
  let module M = struct
    exception E of a
  end in
  let inj v = M.E v in
  let proj = function M.E v -> Some v | _ -> None in
  let idx = eng.tsd_next in
  eng.tsd_next <- idx + 1;
  (match destructor with
  | Some d ->
      eng.tsd_destructors.(idx) <-
        Some (fun u -> match proj u with Some v -> d v | None -> ())
  | None -> ());
  Engine.charge eng Costs.tsd_op;
  { k_index = idx; inj; proj; k_alive = ref true }

let check_alive k name =
  if not !(k.k_alive) then invalid_arg ("Tsd." ^ name ^ ": key was deleted")

let set eng k v =
  check_alive k "set";
  Engine.charge eng Costs.tsd_op;
  let t = Engine.current eng in
  if Array.length t.tsd = 0 then t.tsd <- Array.make max_tsd_keys None;
  t.tsd.(k.k_index) <- Option.map k.inj v

let get eng k =
  check_alive k "get";
  Engine.charge eng Costs.tsd_op;
  let t = Engine.current eng in
  if Array.length t.tsd = 0 then None
  else match t.tsd.(k.k_index) with None -> None | Some u -> k.proj u

let delete_key eng k =
  check_alive k "delete_key";
  k.k_alive := false;
  (* the destructor is unregistered and remaining values dropped: POSIX
     makes freeing them the application's responsibility before deleting *)
  eng.tsd_destructors.(k.k_index) <- None;
  Engine.iter_threads eng (fun t ->
      if Array.length t.tsd > 0 then t.tsd.(k.k_index) <- None)
