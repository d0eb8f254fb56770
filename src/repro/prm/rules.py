"""Standard trigger-action handler scripts.

These are the firmware-side "actions" of the trigger => action
methodology (§5.2). Each factory returns a script callable that -- like
the paper's Example 2 shell script -- only touches the device file tree
through the firmware's file primitives (``cat`` / ``echo``), so the whole
reaction path exercises the CPA register protocol.
"""

from __future__ import annotations

from typing import Callable


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
