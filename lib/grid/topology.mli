(** Grid topologies: a set of heterogeneous nodes plus a link for every
    ordered pair, and user links carrying pipeline input and output (the
    [move_1] and [move_{Ns+1}] connections of the skeleton model). *)

type t

val engine : t -> Aspipe_des.Engine.t
val size : t -> int
val node : t -> int -> Node.t

val link : t -> src:int -> dst:int -> Link.t
(** [link t ~src ~dst]; [src = dst] is the local link. *)

val user_link : t -> int -> Link.t
(** The connection between the user's site and node [i]. *)

(** {1 Builders} *)

val uniform :
  Aspipe_des.Engine.t ->
  n:int ->
  speed:float ->
  latency:float ->
  bandwidth:float ->
  unit ->
  t
(** Homogeneous cluster: [n] identical nodes, all remote pairs share the same
    link parameters, user links identical too. *)

val heterogeneous :
  Aspipe_des.Engine.t ->
  speeds:float array ->
  latency:float ->
  bandwidth:float ->
  unit ->
  t
(** Per-node speeds, uniform network. *)

val two_site :
  Aspipe_des.Engine.t ->
  site_a:float array ->
  site_b:float array ->
  intra_latency:float ->
  intra_bandwidth:float ->
  inter_latency:float ->
  inter_bandwidth:float ->
  unit ->
  t
(** Two sites with cheap intra-site and expensive inter-site links. The user
    sits at site A. [site_a]/[site_b] give each node's speed. *)

val custom :
  Aspipe_des.Engine.t ->
  nodes:Node.t array ->
  links:(src:int -> dst:int -> Link.t) ->
  user_links:(int -> Link.t) ->
  t
(** Full control; the functions are evaluated once per pair at build time. *)
