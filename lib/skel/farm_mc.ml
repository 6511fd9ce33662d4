let map_array ~workers f xs =
  if workers <= 0 then invalid_arg "Farm_mc: workers must be positive";
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    (* lint: domain-shared-ok workers write index-disjoint slots (Atomic next) and the array is read only after join *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && Atomic.get failure = None then begin
          (match f xs.(i) with
          | y -> results.(i) <- Some y
          | exception e -> ignore (Atomic.compare_and_set failure None (Some e)));
          loop ()
        end
      in
      loop ()
    in
    (* The caller runs one worker loop itself rather than parking in
       [Domain.join], so [workers] domains do the work, not [workers + 1]. *)
    let domains = List.init (min workers n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    (match Atomic.get failure with Some e -> raise e | None -> ());
    Array.map (function Some y -> y | None -> assert false) results
  end

let map ~workers f xs = Array.to_list (map_array ~workers f (Array.of_list xs))
