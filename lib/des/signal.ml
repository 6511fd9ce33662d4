type t = {
  mutable value : float;
  mutable subscribers : (old_value:float -> new_value:float -> unit) list;
}

let create v0 = { value = v0; subscribers = [] }

let get t = t.value

let set t v =
  if v <> t.value then begin
    let old_value = t.value in
    t.value <- v;
    List.iter (fun f -> f ~old_value ~new_value:v) (List.rev t.subscribers)
  end

let subscribe t f = t.subscribers <- f :: t.subscribers
