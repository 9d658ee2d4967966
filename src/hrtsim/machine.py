"""Machine description: core partition, physical memory split, sockets."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import PartitionError
from .mem import FrameAllocator, TableStore


class CoreKind(Enum):
    ROS_CORE = "ros"
    HRT_CORE = "hrt"


@dataclass
class Machine:
    """Static hardware model shared by one simulation run.

    ROS-visible frames form the prefix [0, ros_frames), three quarters
    of physical memory; the suffix is visible to the kernel-mode runtime
    only.  Cores are assigned to sockets round-robin in blocks of
    socket_size.
    """

    cores: list[CoreKind] = field(
        default_factory=lambda: [CoreKind.ROS_CORE] * 4 + [CoreKind.HRT_CORE] * 4
    )
    phys_frames: int = 4096
    ros_frames: int = field(init=False)
    socket_size: int = 4

    def __post_init__(self):
        self.ros_frames = self.phys_frames * 3 // 4
        # The cores never change after this, so each side's ids are listed once.
        ros, hrt = CoreKind.ROS_CORE, CoreKind.HRT_CORE
        self.ros_core_ids = [i for i, k in enumerate(self.cores) if k is ros]
        self.hrt_core_ids = [i for i, k in enumerate(self.cores) if k is hrt]
        if not self.ros_core_ids:
            raise PartitionError("need at least one ROS core")
        if not self.hrt_core_ids:
            raise PartitionError("need at least one HRT core")
        if not 0 < self.ros_frames < self.phys_frames:
            raise PartitionError("ROS frame prefix must be a proper subset")
        if self.socket_size < 1:
            raise PartitionError(f"socket size {self.socket_size} is not positive")
        self.table_store = TableStore()
        self.ros_frame_alloc = FrameAllocator(0, self.ros_frames, "ros_visible")
        self.hrt_frame_alloc = FrameAllocator(self.ros_frames, self.phys_frames, "hrt_only")

    def socket_of(self, core_id: int) -> int:
        return core_id // self.socket_size
