type t = {
  capacity : int;
  mutable used : int;
  mutable high_watermark : int;
  mutable failed : int;
}

let create ~capacity_bytes =
  if capacity_bytes <= 0 then invalid_arg "Buffer_pool.create";
  { capacity = capacity_bytes; used = 0; high_watermark = 0; failed = 0 }

let try_alloc t n =
  if t.used + n > t.capacity then begin
    t.failed <- t.failed + 1;
    false
  end
  else begin
    t.used <- t.used + n;
    if t.used > t.high_watermark then t.high_watermark <- t.used;
    true
  end

let free t n =
  if n > t.used then invalid_arg "Buffer_pool.free: more than allocated";
  t.used <- t.used - n

let occupancy t = t.used
let high_watermark t = t.high_watermark
let failed_allocs t = t.failed
