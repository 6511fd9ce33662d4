module Engine = Aspipe_des.Engine

type t = {
  engine : Engine.t;
  nodes : Node.t array;
  links : Link.t array array;
  user_links : Link.t array;
}

let engine t = t.engine
let size t = Array.length t.nodes

let node t i =
  if i < 0 || i >= size t then invalid_arg "Topology.node: index out of range";
  t.nodes.(i)


let link t ~src ~dst =
  if src < 0 || src >= size t || dst < 0 || dst >= size t then
    invalid_arg "Topology.link: index out of range";
  t.links.(src).(dst)

let user_link t i =
  if i < 0 || i >= size t then invalid_arg "Topology.user_link: index out of range";
  t.user_links.(i)

let custom engine ~nodes ~links ~user_links =
  let n = Array.length nodes in
  let link_matrix =
    Array.init n (fun src ->
        Array.init n (fun dst ->
            if src = dst then Link.local engine else links ~src ~dst))
  in
  { engine; nodes; links = link_matrix; user_links = Array.init n user_links }

let heterogeneous engine ~speeds ~latency ~bandwidth () =
  if Array.length speeds = 0 then invalid_arg "Topology.heterogeneous: no nodes";
  let nodes = Array.mapi (fun id speed -> Node.create engine ~id ~speed ()) speeds in
  let links ~src:_ ~dst:_ = Link.create engine ~latency ~bandwidth () in
  let user_links _ = Link.create engine ~latency ~bandwidth () in
  custom engine ~nodes ~links ~user_links

let uniform engine ~n ~speed ~latency ~bandwidth () =
  if n <= 0 then invalid_arg "Topology.uniform: n must be positive";
  heterogeneous engine ~speeds:(Array.make n speed) ~latency ~bandwidth ()

let two_site engine ~site_a ~site_b ~intra_latency ~intra_bandwidth ~inter_latency
    ~inter_bandwidth () =
  let na = Array.length site_a in
  let speeds = Array.append site_a site_b in
  if Array.length speeds = 0 then invalid_arg "Topology.two_site: no nodes";
  let nodes = Array.mapi (fun id speed -> Node.create engine ~id ~speed ()) speeds in
  let sites = Array.init (Array.length speeds) (fun i -> if i < na then 0 else 1) in
  let links ~src ~dst =
    if sites.(src) = sites.(dst) then
      Link.create engine ~latency:intra_latency ~bandwidth:intra_bandwidth ()
    else Link.create engine ~latency:inter_latency ~bandwidth:inter_bandwidth ()
  in
  let user_links i =
    (* The user is co-located with site A. *)
    if sites.(i) = 0 then Link.create engine ~latency:intra_latency ~bandwidth:intra_bandwidth ()
    else Link.create engine ~latency:inter_latency ~bandwidth:inter_bandwidth ()
  in
  custom engine ~nodes ~links ~user_links
