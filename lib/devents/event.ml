type cls =
  | Ingress_packet
  | Egress_packet
  | Recirculated_packet
  | Generated_packet
  | Packet_transmitted
  | Buffer_enqueue
  | Buffer_dequeue
  | Buffer_overflow
  | Buffer_underflow
  | Timer_expiration
  | Control_plane
  | Link_status_change
  | User_event

let all_classes =
  [
    Ingress_packet;
    Egress_packet;
    Recirculated_packet;
    Generated_packet;
    Packet_transmitted;
    Buffer_enqueue;
    Buffer_dequeue;
    Buffer_overflow;
    Buffer_underflow;
    Timer_expiration;
    Control_plane;
    Link_status_change;
    User_event;
  ]

let cls_name = function
  | Ingress_packet -> "ingress-packet"
  | Egress_packet -> "egress-packet"
  | Recirculated_packet -> "recirculated-packet"
  | Generated_packet -> "generated-packet"
  | Packet_transmitted -> "packet-transmitted"
  | Buffer_enqueue -> "buffer-enqueue"
  | Buffer_dequeue -> "buffer-dequeue"
  | Buffer_overflow -> "buffer-overflow"
  | Buffer_underflow -> "buffer-underflow"
  | Timer_expiration -> "timer-expiration"
  | Control_plane -> "control-plane-triggered"
  | Link_status_change -> "link-status-change"
  | User_event -> "user-event"

let cls_index = function
  | Ingress_packet -> 0
  | Egress_packet -> 1
  | Recirculated_packet -> 2
  | Generated_packet -> 3
  | Packet_transmitted -> 4
  | Buffer_enqueue -> 5
  | Buffer_dequeue -> 6
  | Buffer_overflow -> 7
  | Buffer_underflow -> 8
  | Timer_expiration -> 9
  | Control_plane -> 10
  | Link_status_change -> 11
  | User_event -> 12

let num_classes = 13
let cls_equal a b = cls_index a = cls_index b

(* Fields are mutable so the event merger can write queued events into
   the preallocated slots of its rings instead of allocating a fresh
   record per event. Consumers treat events as read-only. *)
type buffer_event = {
  mutable port : int;
  mutable qid : int;
  mutable pkt_len : int;
  mutable flow_id : int;
  meta : int array;
  mutable occupancy_pkts : int;
  mutable occupancy_bytes : int;
  mutable time : int;
}

type underflow_event = { mutable port : int; mutable qid : int; mutable time : int }

type transmit_event = {
  mutable port : int;
  mutable pkt_len : int;
  mutable flow_id : int;
  mutable time : int;
}

type timer_event = {
  mutable id : int;
  mutable period : int;
  mutable scheduled : int;
  mutable fired : int;
  mutable count : int;
}

type link_event = { mutable port : int; mutable up : bool; mutable time : int }
type control_event = { mutable opcode : int; mutable arg : int; mutable time : int }
type user_event = { mutable tag : int; mutable data : int; mutable time : int }

type t =
  | Enqueue of buffer_event
  | Dequeue of buffer_event
  | Overflow of buffer_event
  | Underflow of underflow_event
  | Transmitted of transmit_event
  | Timer of timer_event
  | Link_change of link_event
  | Control of control_event
  | User of user_event

let cls_of = function
  | Enqueue _ -> Buffer_enqueue
  | Dequeue _ -> Buffer_dequeue
  | Overflow _ -> Buffer_overflow
  | Underflow _ -> Buffer_underflow
  | Transmitted _ -> Packet_transmitted
  | Timer _ -> Timer_expiration
  | Link_change _ -> Link_status_change
  | Control _ -> Control_plane
  | User _ -> User_event

