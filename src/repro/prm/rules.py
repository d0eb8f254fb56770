"""Standard trigger-action handler scripts.

These are the firmware-side "actions" of the trigger => action
methodology (§5.2). Each factory returns a script callable that -- like
the paper's Example 2 shell script -- only touches the device file tree
through the firmware's file primitives (``cat`` / ``echo``), so the whole
reaction path exercises the CPA register protocol.
"""

from __future__ import annotations

from typing import Callable


def update_mask(cur_mask: int, miss_rate_bp: int, num_ways: int, max_share: float) -> int:
    """The paper's ``update_mask`` policy function.

    Grows the way allocation when the miss rate is high: allocate enough
    extra contiguous ways to (roughly) halve the miss pressure, capped at
    ``max_share`` of the cache. The mask grows from the high end
    (``0xFF00``-style masks as in Fig. 7).
    """
    if not 0 < max_share <= 1.0:
        raise ValueError("max_share must be in (0, 1]")
    current_ways = bin(cur_mask).count("1")
    max_ways = max(1, int(num_ways * max_share))
    if current_ways >= max_ways:
        return cur_mask
    # Escalate: double the allocation (at least +1 way) up to the cap.
    target_ways = min(max_ways, max(current_ways + 1, current_ways * 2))
    # Build a contiguous mask anchored at the top way.
    mask = 0
    for way in range(num_ways - target_ways, num_ways):
        mask |= 1 << way
    return mask


def increase_waymask_action(num_ways: int = 16, max_share: float = 0.5) -> Callable:
    """Example 2 of Fig. 6: on an LLC miss-rate trigger, read the current
    mask and miss rate, compute a bigger mask, write it back."""

    def script(firmware, context: dict) -> None:
        ldom_path = context["ldom_path"]
        cur_mask = int(firmware.cat(f"{ldom_path}/parameters/waymask"))
        miss_rate = int(firmware.cat(f"{ldom_path}/statistics/miss_rate"))
        new_mask = update_mask(cur_mask, miss_rate, num_ways, max_share)
        if new_mask != cur_mask:
            firmware.echo(hex(new_mask), f"{ldom_path}/parameters/waymask")

    return script


def partition_llc_action(num_ways: int = 16, share: float = 0.5) -> Callable:
    """The §7.1.2 reaction: dedicate ``share`` of the LLC to this LDom.

    The triggering LDom receives the top ways exclusively and every other
    LDom is confined to the complement -- the trigger-driven version of
    Fig. 7's manual ``echo 0xFF00`` / ``echo 0x00FF`` commands.
    """
    if not 0 < share < 1:
        raise ValueError("share must be in (0, 1)")

    def script(firmware, context: dict) -> None:
        cpa = context["cpa"]
        ds_id = context["ds_id"]
        dedicated_ways = max(1, int(num_ways * share))
        dedicated = 0
        for way in range(num_ways - dedicated_ways, num_ways):
            dedicated |= 1 << way
        complement = ((1 << num_ways) - 1) ^ dedicated
        firmware.echo(hex(dedicated), f"{context['ldom_path']}/parameters/waymask")
        for node in firmware.ls(f"/sys/cpa/{cpa}/ldoms"):
            if node != f"ldom{ds_id}":
                firmware.echo(
                    hex(complement), f"/sys/cpa/{cpa}/ldoms/{node}/parameters/waymask"
                )

    return script


def raise_priority_action(level: int = 1) -> Callable:
    """On a memory-latency trigger, raise the LDom's scheduling priority."""

    def script(firmware, context: dict) -> None:
        ldom_path = context["ldom_path"]
        current = int(firmware.cat(f"{ldom_path}/parameters/priority"))
        if current < level:
            firmware.echo(str(level), f"{ldom_path}/parameters/priority")

    return script


def log_action(tag: str = "trigger") -> Callable:
    """Append a line to /log/triggers.log (Example 2's first command)."""

    def script(firmware, context: dict) -> None:
        path = "/log/triggers.log"
        if not firmware.sysfs.exists(path):
            lines: list[str] = []
            firmware.sysfs.add_file(
                path,
                read_handler=lambda: "\n".join(lines),
                write_handler=lambda text: lines.append(text),
            )
        firmware.sysfs.write(
            path, f"{firmware.engine.now} {tag} {context['cpa']} dsid={context['ds_id']}"
        )

    return script


def chain_actions(*scripts: Callable) -> Callable:
    """Run several action scripts in order (log, then react)."""

    def script(firmware, context: dict) -> None:
        for action in scripts:
            action(firmware, context)

    return script
