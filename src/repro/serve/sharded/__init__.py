"""Process-sharded serving: zero-copy shared models + a shard router.

The GIL caps the thread-based :class:`~repro.serve.server.
InferenceServer` at roughly two cores; this package moves the workers
into processes while keeping exactly one physical copy of the model in
POSIX shared memory (:mod:`repro.core.shared`).  See
:class:`ShardedServer` for the serving core over
:class:`ProcessExecutor`, :class:`~repro.serve.sharded.
router.ShardRouter` for shortest-queue routing over replica shards,
and ``python -m repro.serve.sharded.bench`` for the open-loop
saturation harness.
"""

from repro.serve.sharded.router import ShardRouter
from repro.serve.sharded.server import (
    ProcessExecutor,
    ShardedServeConfig,
    ShardedServer,
)

__all__ = [
    "ProcessExecutor",
    "ShardedServer",
    "ShardedServeConfig",
    "ShardRouter",
]
