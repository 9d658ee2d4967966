"""Machine description: core partition, physical memory split, sockets."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import PartitionError
from .mem import FrameAllocator, Owner, TableStore


class CoreKind(enum.Enum):
    ROS_CORE = "ros"
    HRT_CORE = "hrt"


@dataclass
class Machine:
    """Static hardware model shared by one simulation run.

    ROS-visible frames form the prefix [0, ros_frames); the suffix is
    visible to the kernel-mode runtime only.  Cores are assigned to
    sockets round-robin in blocks of socket_size.
    """

    cores: list[CoreKind] = field(
        default_factory=lambda: [CoreKind.ROS_CORE] * 4 + [CoreKind.HRT_CORE] * 4
    )
    phys_frames: int = 4096
    ros_frames: int | None = None  # default: 75% of physical memory
    clock_hz: float = 2.2e9
    socket_size: int = 4

    def __post_init__(self):
        if self.ros_frames is None:
            self.ros_frames = (self.phys_frames * 3) // 4
        if not any(k is CoreKind.ROS_CORE for k in self.cores):
            raise PartitionError("need at least one ROS core")
        if not any(k is CoreKind.HRT_CORE for k in self.cores):
            raise PartitionError("need at least one HRT core")
        if not 0 < self.ros_frames < self.phys_frames:
            raise PartitionError("ROS frame prefix must be a proper subset")
        self.table_store = TableStore()
        self.ros_frame_alloc = FrameAllocator(0, self.ros_frames, Owner.ROS_VISIBLE)
        self.hrt_frame_alloc = FrameAllocator(
            self.ros_frames, self.phys_frames, Owner.HRT_ONLY
        )

    @property
    def ros_core_ids(self) -> list[int]:
        return [i for i, k in enumerate(self.cores) if k is CoreKind.ROS_CORE]

    @property
    def hrt_core_ids(self) -> list[int]:
        return [i for i, k in enumerate(self.cores) if k is CoreKind.HRT_CORE]

    def socket_of(self, core_id: int) -> int:
        return core_id // self.socket_size
