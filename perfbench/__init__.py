"""chatmine benchmark: workloads, inputs, fixed checkpoints and layer tracing."""
