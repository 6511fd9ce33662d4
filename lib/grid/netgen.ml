let apply_pair ?rng ~horizon topo a b profile =
  let forward = Topology.link topo ~src:a ~dst:b in
  let backward = Topology.link topo ~src:b ~dst:a in
  let set q =
    Link.set_quality forward q;
    Link.set_quality backward q
  in
  Loadgen.drive ?rng ~who:"Netgen" ~horizon (Topology.engine topo)
    ~level:(Link.quality forward) set profile
