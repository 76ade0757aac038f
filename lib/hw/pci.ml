open Engine

let clock_mhz = 33.

(* Each transaction's setup: the PCI 2.1 delays the paper cites. *)
let setup = Time.ns 900

let peak_bytes_per_s ~width_bytes =
  clock_mhz *. 1e6 *. float_of_int width_bytes

let create sim ?(name = "pci") ?(width_bytes = 4) ?(efficiency = 0.78) () =
  Bus.create sim ~name
    ~bytes_per_s:(peak_bytes_per_s ~width_bytes)
    ~efficiency ~setup ()
