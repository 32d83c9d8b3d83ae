//! A per-program class-hierarchy index, built once and read by every
//! subtype question.
//!
//! [`Program::hierarchy`] and [`Program::all_interfaces`] allocate and
//! walk the superclass chain on every call. Class-hierarchy analysis
//! asks them for every program class for every virtual call key; this
//! index answers the same questions from flat tables instead.

use crate::body::{ClassId, Program};
use crate::symbols::Symbol;

/// Supertype tables of one [`Program`].
///
/// For each program class `c` it stores `hierarchy(c)` followed by
/// `all_interfaces(c)`, with exactly their semantics: the superclass
/// chain as far as program classes reach (64-step cycle guard), then the
/// direct interfaces of each class on that chain, without closing over
/// interfaces of interfaces. A class defined twice resolves through its
/// last definition, as [`Program::class`] does. The inverse maps a type
/// to the program classes that have it as a supertype, in class order.
#[derive(Debug)]
pub struct TypeIndex {
    /// Per symbol: the class id of its last definition, or `NONE`.
    class_of: Vec<u32>,
    /// Per class id: `[start, chain_end, end)` into `supers`.
    spans: Vec<(u32, u32, u32)>,
    /// Chains and interface lists, back to back.
    supers: Vec<Symbol>,
    /// Per symbol: `subs[sub_at[s]..sub_at[s + 1]]` are its subclasses.
    sub_at: Vec<u32>,
    subs: Vec<ClassId>,
}

const NONE: u32 = u32::MAX;
/// [`Program::hierarchy`]'s guard against cyclic superclass chains.
const MAX_CHAIN_STEPS: usize = 64;

impl TypeIndex {
    /// Builds the index of `program`.
    pub fn build(program: &Program) -> TypeIndex {
        let n_syms = program.symbols.len();
        let mut class_of = vec![NONE; n_syms];
        for (i, class) in program.classes.iter().enumerate() {
            class_of[class.name.0 as usize] = i as u32;
        }
        let mut index = TypeIndex {
            class_of,
            spans: Vec::with_capacity(program.classes.len()),
            supers: Vec::new(),
            sub_at: Vec::new(),
            subs: Vec::new(),
        };
        for class in &program.classes {
            let start = index.supers.len();
            index.supers.push(class.name);
            let mut cur = class.name;
            let mut steps = 0;
            while let Some(def) = index.def(program, cur) {
                let Some(sup) = def.superclass else { break };
                index.supers.push(sup);
                cur = sup;
                steps += 1;
                if steps > MAX_CHAIN_STEPS {
                    break;
                }
            }
            let chain_end = index.supers.len();
            for k in start..chain_end {
                if let Some(def) = index.def(program, index.supers[k]) {
                    index.supers.extend_from_slice(&def.interfaces);
                }
            }
            index
                .spans
                .push((start as u32, chain_end as u32, index.supers.len() as u32));
        }

        // Inverse, counting-sort style: each class lands once in the list
        // of every distinct supertype, in class order.
        let mut counts = vec![0u32; n_syms + 1];
        for cid in 0..program.classes.len() {
            index.for_each_distinct_super(cid, |s| counts[s.0 as usize + 1] += 1);
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut fill = counts.clone();
        let mut subs = vec![ClassId(0); counts[n_syms] as usize];
        for cid in 0..program.classes.len() {
            index.for_each_distinct_super(cid, |s| {
                let slot = &mut fill[s.0 as usize];
                subs[*slot as usize] = ClassId(cid as u32);
                *slot += 1;
            });
        }
        index.subs = subs;
        index.sub_at = counts;
        index
    }

    fn def<'p>(&self, program: &'p Program, name: Symbol) -> Option<&'p crate::body::Class> {
        self.class_id(name)
            .map(|ClassId(i)| &program.classes[i as usize])
    }

    fn for_each_distinct_super(&self, cid: usize, mut f: impl FnMut(Symbol)) {
        let all = self.class_supertypes(ClassId(cid as u32));
        for (k, s) in all.iter().enumerate() {
            if !all[..k].contains(s) {
                f(*s);
            }
        }
    }

    /// The class id of `name`'s last definition, when it is a program
    /// class.
    fn class_id(&self, name: Symbol) -> Option<ClassId> {
        match self.class_of.get(name.0 as usize) {
            Some(&i) if i != NONE => Some(ClassId(i)),
            _ => None,
        }
    }

    /// `hierarchy(c) ++ all_interfaces(c)` for program class `cid`
    /// (duplicates kept).
    pub fn class_supertypes(&self, cid: ClassId) -> &[Symbol] {
        let (start, _, end) = self.spans[cid.0 as usize];
        &self.supers[start as usize..end as usize]
    }

    /// [`Program::all_interfaces`] of program class `cid`, in its order.
    pub fn class_interfaces(&self, cid: ClassId) -> &[Symbol] {
        let (_, chain_end, end) = self.spans[cid.0 as usize];
        &self.supers[chain_end as usize..end as usize]
    }

    /// [`Program::hierarchy`] of `class`, without allocating: the class
    /// itself, then its superclasses as far as program classes reach.
    pub fn chain(&self, class: Symbol) -> impl Iterator<Item = Symbol> + '_ {
        let rest = match self.class_id(class) {
            Some(cid) => {
                let (start, chain_end, _) = self.spans[cid.0 as usize];
                &self.supers[start as usize + 1..chain_end as usize]
            }
            None => &[],
        };
        std::iter::once(class).chain(rest.iter().copied())
    }

    /// Whether `base` is in `hierarchy(class)` or `all_interfaces(class)`.
    pub fn is_subtype(&self, class: Symbol, base: Symbol) -> bool {
        match self.class_id(class) {
            Some(cid) => self.class_supertypes(cid).contains(&base),
            None => class == base,
        }
    }

    /// The program classes that have `ty` as a supertype (themselves
    /// included), in class order. A class defined twice appears twice.
    pub fn subtypes(&self, ty: Symbol) -> &[ClassId] {
        let s = ty.0 as usize;
        match (self.sub_at.get(s), self.sub_at.get(s + 1)) {
            (Some(&a), Some(&b)) => &self.subs[a as usize..b as usize],
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::Class;
    use nck_dex::AccessFlags;

    fn class(p: &mut Program, name: &str, sup: Option<&str>, ifaces: &[&str]) {
        let name = p.symbols.intern(name);
        let superclass = sup.map(|s| p.symbols.intern(s));
        let interfaces = ifaces.iter().map(|i| p.symbols.intern(i)).collect();
        p.add_class(Class {
            name,
            superclass,
            interfaces,
            flags: AccessFlags::PUBLIC,
            fields: vec![],
            methods: vec![],
        });
    }

    /// The index against the allocating walks, for every class and every
    /// interned symbol of `p`.
    fn agrees(p: &Program) {
        let index = TypeIndex::build(p);
        for (i, c) in p.classes.iter().enumerate() {
            let cid = ClassId(i as u32);
            let mut want = p.hierarchy(c.name);
            want.extend(p.all_interfaces(c.name));
            assert_eq!(index.class_supertypes(cid), want.as_slice());
            assert_eq!(index.class_interfaces(cid), p.all_interfaces(c.name));
        }
        for s in 0..p.symbols.len() {
            let ty = Symbol(s as u32);
            assert_eq!(index.chain(ty).collect::<Vec<_>>(), p.hierarchy(ty));
            let want: Vec<ClassId> = p
                .classes
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    p.hierarchy(c.name).contains(&ty) || p.all_interfaces(c.name).contains(&ty)
                })
                .map(|(i, _)| ClassId(i as u32))
                .collect();
            assert_eq!(
                index.subtypes(ty),
                want.as_slice(),
                "{}",
                p.symbols.resolve(ty)
            );
            for c in 0..p.symbols.len() {
                let c = Symbol(c as u32);
                let walk = p.hierarchy(c).contains(&ty) || p.all_interfaces(c).contains(&ty);
                assert_eq!(index.is_subtype(c, ty), walk);
            }
        }
    }

    #[test]
    fn interface_extending_interface_is_not_closed_over() {
        let mut p = Program::new();
        class(&mut p, "La/I;", None, &["La/J;"]);
        class(&mut p, "La/J;", None, &[]);
        class(&mut p, "La/Base;", Some("Ljava/lang/Object;"), &["La/I;"]);
        class(&mut p, "La/C;", Some("La/Base;"), &["La/K;"]);
        agrees(&p);
        let index = TypeIndex::build(&p);
        let c = p.symbols.get("La/C;").unwrap();
        assert!(index.is_subtype(c, p.symbols.get("La/I;").unwrap()));
        assert!(!index.is_subtype(c, p.symbols.get("La/J;").unwrap()));
    }

    #[test]
    fn superclass_cycle_stops_at_the_guard() {
        let mut p = Program::new();
        class(&mut p, "La/A;", Some("La/B;"), &["La/X;"]);
        class(&mut p, "La/B;", Some("La/A;"), &[]);
        agrees(&p);
        let index = TypeIndex::build(&p);
        let a = p.symbols.get("La/A;").unwrap();
        assert_eq!(index.chain(a).count(), MAX_CHAIN_STEPS + 2);
    }

    #[test]
    fn a_duplicate_class_resolves_through_its_last_definition() {
        let mut p = Program::new();
        class(&mut p, "La/D;", Some("La/First;"), &["La/I1;"]);
        class(&mut p, "La/E;", Some("La/D;"), &[]);
        class(&mut p, "La/D;", Some("La/Second;"), &["La/I2;"]);
        agrees(&p);
        let index = TypeIndex::build(&p);
        let second = p.symbols.get("La/Second;").unwrap();
        assert_eq!(index.subtypes(second).len(), 3, "both D records and E");
        let first = p.symbols.get("La/First;").unwrap();
        assert!(index.subtypes(first).is_empty());
    }

    #[test]
    fn a_type_that_is_no_program_class_is_only_itself() {
        let mut p = Program::new();
        class(&mut p, "La/A;", Some("Landroid/app/Activity;"), &[]);
        let stray = p.symbols.intern("Lframework/Other;");
        agrees(&p);
        let index = TypeIndex::build(&p);
        assert_eq!(index.chain(stray).collect::<Vec<_>>(), vec![stray]);
        assert!(index.is_subtype(stray, stray));
        assert!(index.subtypes(stray).is_empty());
        assert!(index.class_id(stray).is_none());
        // A symbol interned after the build is no program class either.
        let late = p.symbols.intern("Llate/Type;");
        assert!(index.subtypes(late).is_empty());
        assert_eq!(index.chain(late).count(), 1);
    }
}
