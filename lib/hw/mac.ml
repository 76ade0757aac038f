type t = Node of int | Broadcast | Multicast of int

let of_node id =
  if id < 0 then invalid_arg "Mac.of_node: negative node id";
  Node id

let broadcast = Broadcast
let multicast g = Multicast g

(* IEEE 802.3x pause frames go to the reserved 01-80-C2-00-00-01 group
   address; model it as a distinguished multicast group.  Switches never
   flood it: MAC control frames are consumed by the receiving station. *)
let flow_control = Multicast 0x01
let is_group = function Broadcast | Multicast _ -> true | Node _ -> false
let equal a b = a = b

let pp fmt = function
  | Node id -> Format.fprintf fmt "mac:%02x" id
  | Broadcast -> Format.fprintf fmt "mac:ff"
  | Multicast g -> Format.fprintf fmt "mac:mc%02x" g

let to_string t = Format.asprintf "%a" pp t
