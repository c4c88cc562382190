"""Blocks of records held as int64 columns.

A :class:`ColumnBlock` holds many records of one dataclass as one
``(fields, records)`` int64 table, rows in the dataclass's field order.
A number field's row holds its values; a *label* field's row holds
indices into a name table — a fixed tuple of the subclass
(:attr:`ColumnBlock.labels`, e.g. fault kinds) or, for the ``site``
field, the block's own ``sites``.  Each row is also an attribute named
after its field (``block.cycle`` is the cycle row).

A block is a ``Sequence`` of its records: an int index (negative ones
too) builds one record with plain ``int``/``str`` fields, a slice
returns a block, iteration builds the records in order, and a block
compares equal to any sequence holding equal records.  The result
store (:mod:`repro.exec.cache`) writes a block through
:meth:`ColumnBlock.columns` and decodes a stored column list of a
block's record type straight back into a block
(:meth:`ColumnBlock.from_columns`).
"""

from __future__ import annotations

import collections.abc
import dataclasses
import operator
import typing
from json.encoder import encode_basestring_ascii

import numpy as np

#: Record dataclass → the block class holding it.
_BLOCKS: dict[type, type["ColumnBlock"]] = {}


class ColumnBlock(collections.abc.Sequence):
    """Records of :attr:`record` as an int64 table (see module doc)."""

    #: The dataclass one column of the table builds.
    record: typing.ClassVar[type]
    #: Fixed name tables of label fields; ``site`` indexes ``sites``.
    labels: typing.ClassVar[dict[str, tuple[str, ...]]] = {}
    #: :attr:`record`'s field names, the table's rows in order.
    fields: typing.ClassVar[tuple[str, ...]]

    def __init_subclass__(cls, **kwargs: typing.Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.fields = tuple(field.name
                           for field in dataclasses.fields(cls.record))
        for row, name in enumerate(cls.fields):
            setattr(cls, name, property(
                lambda self, row=row: self.table[row],
                doc=f"The ``{name}`` row of the table."))
        _BLOCKS[cls.record] = cls

    def __init__(self, sites: typing.Sequence[str],
                 table: np.ndarray) -> None:
        self.sites = tuple(sites)
        self.table = table

    @staticmethod
    def for_record(record: type) -> "type[ColumnBlock] | None":
        """The block class holding ``record`` instances, if any."""
        return _BLOCKS.get(record)

    def _names(self) -> list[tuple[str, ...] | None]:
        """Each row's name table (None for number rows)."""
        return [self.sites if name == "site" else self.labels.get(name)
                for name in self.fields]

    @classmethod
    def empty(cls, sites: typing.Sequence[str] = ()) -> "ColumnBlock":
        return cls(sites, np.zeros((len(cls.fields), 0), dtype=np.int64))

    @classmethod
    def from_rows(cls, sites: typing.Sequence[str],
                  **rows: typing.Any) -> "ColumnBlock":
        """The block of one array (or broadcast scalar) per field."""
        return cls(sites, np.stack(np.broadcast_arrays(*(
            np.asarray(rows[name], dtype=np.int64) for name in cls.fields))))

    @classmethod
    def from_records(cls, records: typing.Iterable,
                     sites: typing.Sequence[str] | None = None,
                     ) -> "ColumnBlock":
        """The block holding ``records``; sites indexed into ``sites``
        (by default the records' own, in order of first appearance)."""
        if isinstance(records, cls) and (sites is None
                                         or records.sites == tuple(sites)):
            return records
        records = list(records)
        block = cls.from_columns(
            {name: [getattr(record, name) for record in records]
             for name in cls.fields}, sites)
        if block is None:
            raise ValueError(f"records do not fit a {cls.__name__}: "
                             f"{records!r}")
        return block

    @classmethod
    def from_columns(cls, columns: typing.Mapping[str, list],
                     sites: typing.Sequence[str] | None = None,
                     ) -> "ColumnBlock | None":
        """The block of :meth:`columns`' output, sites as in
        :meth:`from_records`; None where a value has no int64 column
        form (an unknown label, a number that is not an ``int``)."""
        if tuple(columns) != cls.fields:
            return None
        block = cls.empty(dict.fromkeys(columns.get("site", ()))
                          if sites is None else sites)
        rows = []
        for values, names in zip(columns.values(), block._names()):
            # One type check per column; ``bool`` is not ``int`` here.
            if set(map(type, values)) - {int if names is None else str}:
                return None
            if names is not None:
                slot = {name: index for index, name in enumerate(names)}
                try:
                    values = [slot[value] for value in values]
                except KeyError:
                    return None
            rows.append(values)
        try:
            table = np.array(rows, dtype=np.int64)
        except OverflowError:  # a number outside int64
            return None
        block.table = table.reshape(len(rows), -1)
        return block

    @classmethod
    def concat(cls, blocks: typing.Sequence[typing.Sequence]
               ) -> "ColumnBlock":
        """``blocks`` joined in order.  A sequence of records that is
        not a block joins as :meth:`from_records` of it; blocks whose
        ``sites`` differ join on their union, in order of appearance."""
        blocks = [cls.from_records(block) for block in blocks]
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return cls.empty()
        sites = tuple(dict.fromkeys(
            site for block in blocks for site in block.sites))
        tables = []
        for block in blocks:
            table = block.table
            if block.sites != sites and len(block):
                row = cls.fields.index("site")
                table = table.copy()
                table[row] = np.array([sites.index(site)
                                       for site in block.sites])[table[row]]
            tables.append(table)
        return cls(sites, np.concatenate(tables, axis=1))

    def columns(self) -> dict[str, list]:
        """Field name → the records' values (plain ``int``/``str``), in
        field order."""
        return {name: (row if names is None
                       else [names[index] for index in row])
                for name, row, names in zip(self.fields, self.table.tolist(),
                                            self._names())}

    def json_rows(self, fields: typing.Sequence[str]) -> str:
        """``json.dumps`` text (``(",", ":")`` separators, ASCII) of one
        list of ``fields`` per record, labels as their names.

        Equal to encoding the :meth:`columns` lists zipped into rows,
        but filled in by one ``%`` format over every cell.
        """
        labels = dict(zip(self.fields, self._names()))
        width = len(fields)
        cells: list = [None] * (width * len(self))
        for position, name in enumerate(fields):
            values = getattr(self, name).tolist()
            if labels[name] is not None:
                quoted = {index: encode_basestring_ascii(labels[name][index])
                          for index in set(values)}
                values = [quoted[index] for index in values]
            cells[position::width] = values
        row = "[" + ",".join(["%s"] * width) + "],"
        return "[" + (row * len(self))[:-1] % tuple(cells) + "]"

    def __len__(self) -> int:
        return self.table.shape[1]

    def __getitem__(self, index: int | slice) -> typing.Any:
        if isinstance(index, slice):
            return type(self)(self.sites, self.table[:, index])
        row = self.table[:, operator.index(index)].tolist()
        return self.record(*(value if names is None else names[value]
                             for value, names in zip(row, self._names())))

    def __iter__(self) -> typing.Iterator:
        record = self.record
        for row in zip(*self.columns().values()):
            yield record(*row)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self) and other.sites == self.sites:
            return np.array_equal(self.table, other.table)
        if (not isinstance(other, collections.abc.Sequence)
                or isinstance(other, (str, bytes))):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"
