// Portable lockstep plant kernel: the build's baseline ISA (SSE2 on
// x86-64), the eight lanes as four interleaved 2-wide vectors.
#define DDL_PLANT_KERNEL_NS plant_kernel_base
#define DDL_PLANT_KERNEL_WIDTH 2
#include "plant_lanes_kernel_body.inc"
