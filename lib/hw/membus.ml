open Engine

let create sim ?(name = "membus") ?(bytes_per_s = 800e6) () =
  Bus.create sim ~name ~bytes_per_s ~setup:(Time.ns 60) ()

let copy_bytes n = 2 * n
