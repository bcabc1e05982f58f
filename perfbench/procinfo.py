"""Process helpers shared by the harness and the processes it starts."""

from __future__ import annotations

import os
from typing import Dict, Union


def child_env(root: str) -> Dict[str, str]:
    """The environment a child needs to import the program and the harness."""
    env = dict(os.environ)
    paths = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def cpu_ns(pid: int) -> int:
    """CPU time all threads of process ``pid`` have run, in ns."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
            total += int(handle.read().split()[0])
    return total


def peak_rss_mib(pid: Union[int, str] = "self") -> float:
    """VmHWM of process ``pid``, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
